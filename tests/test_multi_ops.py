"""Batched multi-op entry points (``multi_put``/``multi_get``/``multi_delete``).

The batched execution engine's core contract, asserted for every store
in the library: running an op sequence through the ``multi_*`` entry
points is **byte-identical** to running it one op at a time -- same
return values, same final store contents, same stats snapshot, same
simulated clock, and the same trace artifact.  Batching buys wall-clock
time only (docs/performance.md); nothing simulated may move.
"""

import pytest

from repro.bench.config import BenchScale
from repro.bench.factory import STORE_NAMES, make_store
from repro.kvstore.api import KVStore
from repro.kvstore.values import SizedValue
from repro.obs import chrome_trace_json, openmetrics_text
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.sim.rng import XorShiftRng

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=256)

#: Read branches the default options never reach: label -> (store,
#: option overrides, probe).  The probe is asked before every ``_get``
#: and must say yes at least once, or the run proved nothing.  The
#: baselines serve ``multi_get`` through ``_get``, so this is where
#: those branches are reached from the batched entry point.
RARE_READ_BRANCHES = {
    "matrixkv-inflight-column": (
        "matrixkv", {"container_bytes": 32 * KB},
        lambda store, key: key in store._inflight_column,
    ),
    "novelsm-four-memtables": (
        "novelsm", {"nvm_memtable_bytes": 16 * KB},
        lambda store, key: None not in (
            store.memtable, store.immutable, store.nvm_mt, store.nvm_imm
        ),
    ),
}


def _op_sequence(n=700, key_space=220, seed=11):
    """A deterministic mixed put/get/delete sequence."""
    rng = XorShiftRng(seed)
    ops = []
    for i in range(n):
        draw = rng.next_below(100)
        key = b"key%05d" % rng.next_below(key_space)
        if draw < 55:
            ops.append(("put", key, SizedValue(("v", i), 256)))
        elif draw < 90:
            ops.append(("get", key, None))
        else:
            ops.append(("delete", key, None))
    return ops


def _run(label, batched, chunk=48, trace=False, live=False):
    """One run of the sequence; returns every observable artifact.

    ``live`` attaches the sampled live plane in place of the full
    recorder, with both flight triggers armed low enough to fire: the
    artifact is then what it retained, counted, exported and dumped.
    """
    name, overrides, probe = RARE_READ_BRANCHES.get(label, (label, {}, None))
    store, system = make_store(name, SCALE, **overrides)
    reached = []
    if probe is not None:
        engine_get = store._get

        def probed_get(key):
            reached.append(probe(store, key))
            return engine_get(key)

        store._get = probed_get
    recorder = None
    if live:
        recorder = system.attach_live(stall_alert_s=1e-5, slo_threshold_s=5e-6)
    elif trace:
        recorder = system.attach_tracing()
    ops = _op_sequence()
    outs = []
    if not batched:
        for kind, key, value in ops:
            if kind == "put":
                outs.append(store.put(key, value))
            elif kind == "get":
                outs.append(store.get(key))
            else:
                outs.append(store.delete(key))
    else:
        # Coalesce runs of consecutive same-kind ops, capped at `chunk`.
        i = 0
        while i < len(ops):
            j = i
            kind = ops[i][0]
            while j < len(ops) and ops[j][0] == kind and j - i < chunk:
                j += 1
            block = ops[i:j]
            if kind == "put":
                outs.extend(store.multi_put([(k, v) for __, k, v in block]))
            elif kind == "get":
                outs.extend(store.multi_get([k for __, k, __v in block]))
            else:
                outs.extend(store.multi_delete([k for __, k, __v in block]))
            i = j
    assert probe is None or any(reached), f"{label}: branch never reached"
    store.quiesce()
    items = list(store.items())
    snapshot = system.stats.snapshot()
    clock = system.clock.now
    if recorder is not None:
        recorder.detach()
        trace_text = chrome_trace_json(recorder, name)
    else:
        trace_text = ""
    if live:
        assert recorder.flight.dumps, "no flight trigger fired"
        trace_text = (
            trace_text, recorder.sampling_meta(), openmetrics_text(recorder),
            recorder.flight.dumps,
        )
    return outs, items, snapshot, clock, trace_text


@pytest.mark.parametrize("name", STORE_NAMES + tuple(RARE_READ_BRANCHES))
def test_batched_run_is_byte_identical(name):
    unbatched = _run(name, batched=False)
    batched = _run(name, batched=True)
    labels = ("outputs", "items", "stats", "clock", "trace")
    for label, (a, b) in zip(labels, zip(unbatched, batched)):
        assert a == b, f"{name}: batched run diverged on {label}"


def test_batched_trace_is_byte_identical_miodb():
    # Trace comparison is expensive; one store with full background
    # machinery (flush + zero-copy + lazy-copy) covers the event stream.
    unbatched = _run("miodb", batched=False, trace=True)
    batched = _run("miodb", batched=True, trace=True)
    assert unbatched[4] == batched[4]
    assert unbatched[:4] == batched[:4]
    # The live plane's retention is batch-invariant like everything else.
    assert _run("miodb", False, live=True) == _run("miodb", True, live=True)


def test_odd_chunk_sizes_do_not_matter():
    reference = _run("miodb", batched=False)
    live = _run("miodb", batched=False, live=True)
    for chunk in (1, 7, 700):
        assert _run("miodb", batched=True, chunk=chunk) == reference
        assert _run("miodb", batched=True, chunk=chunk, live=True) == live


def _crash_run(case, batched):
    """A batch cut short by a crash point; returns what was accounted.

    ``put``: the 5th ``_put`` crashes after its WAL append.  ``get``: a
    flush is in flight when the batch starts, and the settle that
    retires it crashes in its swizzle callback.
    """
    store, system = make_store("miodb", SCALE)
    store.crash = CrashInjector()
    keys = [b"key%05d" % i for i in range(60)]
    if case == "put":
        store.crash.arm("put.after_wal", 5)
        ops = [(key, SizedValue(i, 96)) for i, key in enumerate(keys[:10])]
    else:
        for i, key in enumerate(keys):
            store.put(key, SizedValue(i, 256))
            if store._flush_busy:
                break
        assert store._flush_busy
        store.crash.arm("flush.after_swizzle")
        ops = [key for key in keys[:i + 1] for __ in range(8)]
    with pytest.raises(SimulatedCrash):
        if case == "put" and batched:
            store.multi_put(ops)
        elif case == "put":
            for key, value in ops:
                store.put(key, value)
        elif batched:
            store.multi_get(ops)
        else:
            for key in ops:
                store.get(key)
    return system.stats.snapshot(), system.clock.now, system.latency.latencies()


@pytest.mark.parametrize("case", ["put", "get"])
def test_batch_cut_by_a_crash_counts_its_completed_ops(case):
    unbatched = _crash_run(case, batched=False)
    batched = _crash_run(case, batched=True)
    assert unbatched == batched
    stats = batched[0]
    if case == "put":
        assert stats["op.put"] == 4.0
        assert stats["user.bytes_written"] == 4 * (8 + 96)
    else:
        assert 0 < stats["op.get"] < 8 * 60


@pytest.mark.parametrize("name", [n for n in STORE_NAMES if n != "miodb"])
def test_baselines_have_one_read_walk(name):
    # A batched twin of _get stays only where a benchmarked workload
    # shows each side winning (KVStore._batch_lookup); no baseline does.
    store, __ = make_store(name, SCALE)
    assert type(store)._batch_lookup is KVStore._batch_lookup


# ----------------------------------------------------------- small contracts


def _mio():
    store, system = make_store("miodb", SCALE)
    return store, system


def test_multi_put_returns_per_op_latencies():
    store, __ = _mio()
    items = [(b"key%03d" % i, SizedValue(i, 128)) for i in range(10)]
    latencies = store.multi_put(items)
    assert len(latencies) == 10
    assert all(lat > 0 for lat in latencies)
    singles = [store.put(b"more%03d" % i, SizedValue(i, 128)) for i in range(3)]
    assert all(lat > 0 for lat in singles)


def test_multi_get_matches_get():
    store, __ = _mio()
    store.multi_put([(b"key%03d" % i, SizedValue(i, 128)) for i in range(40)])
    keys = [b"key%03d" % i for i in (0, 39, 17)] + [b"missing"]
    results = store.multi_get(keys)
    assert [v.tag for v, __lat in results[:3]] == [0, 39, 17]
    assert results[3][0] is None
    assert all(lat > 0 for __v, lat in results)


def test_multi_delete_writes_tombstones():
    store, __ = _mio()
    store.multi_put([(b"key%03d" % i, SizedValue(i, 128)) for i in range(6)])
    store.multi_delete([b"key000", b"key003"])
    assert store.get(b"key000")[0] is None
    assert store.get(b"key003")[0] is None
    assert store.get(b"key001")[0].tag == 1


def test_empty_batches_are_free():
    store, system = _mio()
    before = system.clock.now
    assert store.multi_put([]) == []
    assert store.multi_get([]) == []
    assert store.multi_delete([]) == []
    assert system.clock.now == before
    assert system.stats.get("op.put") == 0.0
    assert system.stats.get("op.get") == 0.0


def test_multi_put_validates_before_applying():
    store, system = _mio()
    with pytest.raises(ValueError):
        store.multi_put([(b"good", b"v"), (b"", b"v")])
    # Validation happens before any op runs: nothing was applied.
    assert store.get(b"good")[0] is None
    assert system.stats.get("op.put") == 0.0
    with pytest.raises(ValueError):
        store.multi_delete([b"ok", b""])
    reads_before = system.stats.get("op.get")
    with pytest.raises(ValueError):
        store.multi_get([b"ok", b""])
    assert system.stats.get("op.get") == reads_before


# -------------------------------------------------- workload-level batching


def test_dbbench_batch_size_is_equivalent():
    from repro.workloads.dbbench import (
        delete_random,
        fill_random,
        overwrite,
        read_random,
        read_seq,
    )

    def drive(batch):
        store, system = make_store("miodb", SCALE)
        fill_random(store, 300, 256, batch_size=batch)
        read_random(store, 120, 300, batch_size=batch)
        read_seq(store, 80, 300, batch_size=batch)
        overwrite(store, 90, 300, 256, batch_size=batch)
        delete_random(store, 40, 300, batch_size=batch)
        store.quiesce()
        snapshot = system.stats.snapshot()
        return list(store.items()), snapshot, system.clock.now

    assert drive(None) == drive(37)


def test_ycsb_batch_size_is_equivalent():
    from repro.workloads.ycsb import YCSB_WORKLOADS, load_phase, run_workload

    def drive(batch, wl):
        store, system = make_store("miodb", SCALE)
        load_phase(store, 200, 256, batch_size=batch)
        run_workload(
            store, YCSB_WORKLOADS[wl], 300, 200, 256,
            batch_size=batch, check_reads=(wl != "D"),
        )
        store.quiesce()
        snapshot = system.stats.snapshot()
        return list(store.items()), snapshot, system.clock.now

    for wl in ("A", "D", "E", "F"):
        assert drive(None, wl) == drive(29, wl), wl


def test_live_artifacts_do_not_depend_on_batch_size():
    # Long enough to close windows, stall and fire flight triggers in
    # the middle of a batch (the 700-op sequence above fits one window).
    from repro.bench.config import MB
    from repro.workloads.dbbench import fill_random, read_random

    scale = BenchScale(
        memtable_bytes=64 * KB, dataset_bytes=2 * MB, value_size=KB,
        nvm_buffer_bytes=512 * KB,
    )

    def drive(batch):
        store, system = make_store(
            "miodb", scale, max_nvm_buffer_bytes=256 * KB
        )
        rec = system.attach_live(stall_alert_s=1e-5, slo_threshold_s=5e-6)
        fill_random(store, 2048, KB, batch_size=batch)
        read_random(store, 512, 2048, batch_size=batch)
        store.quiesce()
        rec.detach()
        return (
            chrome_trace_json(rec, "miodb"), rec.sampling_meta(),
            rec.window.rows, openmetrics_text(rec), rec.flight.dumps,
        )

    per_op = drive(None)
    meta, rows, dumps = per_op[1], per_op[2], per_op[4]
    assert meta["retained_tail"] and meta["retained_stall"]
    assert len(rows) > 4
    assert {d["trigger"] for d in dumps} == {"stall-alert", "slo-burn"}
    for batch in (37, 256):
        assert drive(batch) == per_op, batch


def test_workload_batch_size_validation():
    from repro.workloads.dbbench import fill_random
    from repro.workloads.ycsb import YCSB_WORKLOADS, load_phase, run_workload

    store, __ = _mio()
    with pytest.raises(ValueError):
        fill_random(store, 10, 128, batch_size=0)
    with pytest.raises(ValueError):
        load_phase(store, 10, 128, batch_size=-1)
    with pytest.raises(ValueError):
        run_workload(store, YCSB_WORKLOADS["A"], 10, 10, 128, batch_size=0)
