"""Figure 14: throughput vs NVM buffer size (DRAM-NVM-SSD hierarchy).

The paper grows NoveLSM's NVM MemTables and MatrixKV's matrix container
from 8 to 64 GB.  MioDB's elastic buffer has no fixed size; the paper
runs it once with a 64 GB *maximum* that it never needs (peak usage
39.1 GB, average 19.5 GB on the 80 GB dataset).  Headlines at the
largest baseline buffers: MioDB's random write is 2.3x MatrixKV and
4.9x NoveLSM; random read 11.4x MatrixKV and ~= NoveLSM.
"""

from conftest import deep_scale, run_once

from repro.bench import format_table, make_store
from repro.workloads import fill_random, read_random

MB = 1 << 20
#: scaled stand-ins for 8/16/32/64 GB baseline buffers
BUFFER_SIZES = [4 * MB, 8 * MB, 16 * MB, 32 * MB]
#: MioDB's configured maximum (the paper's 64 GB): generous, not sizing
MIODB_CAP = 64 * MB


def run_buffer_sweep(scale):
    # deep ratio: data must actually flow through the buffer to the SSD
    # for the buffer-size comparison to mean what it means in the paper
    scale = deep_scale(scale)
    n = scale.n_records
    rows = []
    for buffer_bytes in BUFFER_SIZES:
        for name in ("matrixkv", "novelsm"):
            store, system = build(name, scale, buffer_bytes)
            write = fill_random(store, n, scale.value_size)
            read = read_random(store, min(scale.rw_ops, n), n)
            rows.append(
                [buffer_bytes // MB, name, write.kiops, read.kiops,
                 system.nvm.peak_bytes_in_use / MB,
                 system.nvm.average_usage() / MB]
            )
    store, system = make_store(
        "miodb", scale, ssd=True, max_nvm_buffer_bytes=MIODB_CAP
    )
    write = fill_random(store, n, scale.value_size)
    read = read_random(store, min(scale.rw_ops, n), n)
    mio_row = [
        MIODB_CAP // MB, "miodb (elastic)", write.kiops, read.kiops,
        system.nvm.peak_bytes_in_use / MB,
        system.nvm.average_usage() / MB,
    ]
    return rows, mio_row


def build(name, scale, buffer_bytes):
    if name == "matrixkv":
        return make_store(
            "matrixkv",
            scale,
            ssd=True,
            container_bytes=buffer_bytes,
            column_target_bytes=max(scale.memtable_bytes, buffer_bytes // 4),
        )
    return make_store(
        "novelsm", scale, ssd=True, nvm_memtable_bytes=buffer_bytes // 2
    )


def test_fig14_nvm_buffer(benchmark, scale, emit):
    rows, mio_row = run_once(benchmark, lambda: run_buffer_sweep(scale))
    text = format_table(
        ["buffer_MB", "store", "write_KIOPS", "read_KIOPS",
         "nvm_peak_MB", "nvm_avg_MB"],
        rows + [mio_row],
    )
    emit("fig14_nvm_buffer", text)

    # MioDB (one elastic config) vs each baseline's BEST buffer size
    best_matrix_w = max(r[2] for r in rows if r[1] == "matrixkv")
    best_novel_w = max(r[2] for r in rows if r[1] == "novelsm")
    best_matrix_r = max(r[3] for r in rows if r[1] == "matrixkv")
    assert mio_row[2] > 1.5 * best_matrix_w  # paper: 2.3x
    assert mio_row[2] > 2.0 * best_novel_w  # paper: 4.9x
    assert mio_row[3] > best_matrix_r  # paper: 11.4x
    # the elastic buffer never needs anywhere near its configured cap
    assert mio_row[5] < 0.75 * (MIODB_CAP // MB)
    # a bigger buffer helps MatrixKV writes (the paper's trend)...
    matrix_w = [r[2] for r in rows if r[1] == "matrixkv"]
    assert matrix_w[-1] >= matrix_w[0]
