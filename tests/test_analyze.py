"""Tests for the trace-analysis engine (repro.obs.analyze).

The load-bearing property is *conservation*: every traced foreground
op's latency decomposes into queue wait + stalls by cause + device time
by device + other, and the components sum back to the measured simulated
latency exactly -- not approximately -- for every op in dbbench-style,
YCSB, and cluster runs.  The rest pins the cross-checks: attribution
stall totals match the recorder's, trace-derived persistent bytes match
the system's fig-11 write-amplification accounting, and the assembled
reports are byte-identical across same-seed runs.
"""

import pytest

from repro.bench.config import BenchScale
from repro.obs import run_traced
from repro.obs.analyze import (
    analysis_json,
    analyze_cluster,
    analyze_run,
    attribute_ops,
    critical_paths,
    per_level_bytes,
    persistent_write_bytes,
    render_analysis,
    render_cluster_analysis,
    stall_blame,
    summarize,
    time_profile,
)
from repro.obs.analyze.timeline import bytes_moved_timeline, transfer_writes
from repro.obs.events import CAT_TRANSFER, STALL_CAUSES, TraceEvent
from repro.obs.export import bandwidth_csv
from repro.obs.recorder import TraceRecorder

pytestmark = pytest.mark.obs_smoke

_RUNS = {}


def _traced(name, mode="fillrandom"):
    """One traced run per (store, mode), shared across the tests."""
    key = (name, mode)
    if key not in _RUNS:
        _RUNS[key] = run_traced(name, n=512, value_size=1024, reads=64, mode=mode)
    return _RUNS[key]


def _traced_cluster():
    """A traced 3-shard cluster run; returns (cluster, recorders)."""
    if "cluster" not in _RUNS:
        from repro.cluster import ClientSpec, Cluster, ShardRouter, run_cluster
        from repro.kvstore.values import SizedValue
        from repro.workloads.keys import key_for

        scale = BenchScale(
            memtable_bytes=8 << 10, dataset_bytes=1 << 20, value_size=256
        )
        cluster = Cluster("miodb", n_shards=3, scale=scale)
        router = ShardRouter(cluster)
        recorders = cluster.attach_tracing()
        for i in range(300):
            router.put(key_for(i), SizedValue(("seed", i), 256))
        router.quiesce()
        router.reset_window()
        specs = [
            ClientSpec(n_ops=200, rate_per_s=200000.0, key_space=300, seed=s)
            for s in (1, 2)
        ]
        run_cluster(router, specs)
        router.quiesce()
        cluster.detach_tracing()
        _RUNS["cluster"] = (cluster, recorders)
    return _RUNS["cluster"]


# ------------------------------------------------------------ conservation


def _assert_conserves(attrs):
    assert attrs
    for attr in attrs:
        # Exact equality, not isclose: other_s is defined as the
        # difference, so the decomposition must conserve to the bit.
        assert attr.measured_s - (attr.named_s + attr.other_s) == 0.0
        assert attr.named_s + attr.other_s == attr.measured_s
        assert attr.measured_s >= 0.0
        assert attr.queue_s >= 0.0
        assert all(v >= 0.0 for v in attr.stall_s.values())
        assert all(v >= 0.0 for v in attr.device_s.values())


@pytest.mark.parametrize(
    "name", ["miodb", "leveldb", "novelsm", "matrixkv", "slmdb", "novelsm-nosst"]
)
def test_attribution_conserves_exactly_dbbench(name):
    __, __, recorder = _traced(name)
    attrs = attribute_ops(recorder)
    assert len(attrs) == 512 + 64
    _assert_conserves(attrs)


@pytest.mark.parametrize("name", ["miodb", "leveldb"])
def test_attribution_conserves_exactly_ycsb(name):
    __, __, recorder = _traced(name, mode="ycsb-a")
    attrs = attribute_ops(recorder)
    assert len(attrs) == 512 + 64
    _assert_conserves(attrs)


def test_attribution_conserves_exactly_cluster():
    cluster, recorders = _traced_cluster()
    total_ops = 0
    for recorder in recorders:
        attrs = attribute_ops(recorder)
        total_ops += len(attrs)
        _assert_conserves(attrs)
    # 300 preload puts + 2 clients x 200 driven ops, all completed.
    assert total_ops == 700


def test_cluster_queue_wait_is_attributed():
    __, recorders = _traced_cluster()
    merged = [a for r in recorders for a in attribute_ops(r)]
    assert sum(a.queue_s for a in merged) > 0.0
    for attr in merged:
        # Measured latency includes the admission wait: response time.
        assert attr.measured_s >= attr.queue_s


def test_attribution_stall_totals_match_recorder():
    __, __, recorder = _traced("miodb")
    attrs = attribute_ops(recorder)
    totals = {}
    for attr in attrs:
        for cause, seconds in attr.stall_s.items():
            totals[cause] = totals.get(cause, 0.0) + seconds
    expected = recorder.stall_seconds_by_cause()
    assert set(totals) == set(expected)
    assert set(totals) <= STALL_CAUSES
    for cause in expected:
        assert totals[cause] == pytest.approx(expected[cause], abs=1e-15)


def test_job_transfers_excluded_from_foreground_device_time():
    __, system, recorder = _traced("miodb")
    attrs = attribute_ops(recorder)
    fg_device = sum(sum(a.device_s.values()) for a in attrs)
    all_transfer = sum(
        (e.args or {}).get("seconds", 0.0)
        for e in recorder.events
        if e.cat == "transfer"
    )
    # Background flush/compaction traffic exists and is excluded.
    assert 0.0 < fg_device < all_transfer


def test_summarize_totals_equal_per_op_sums():
    __, __, recorder = _traced("leveldb")
    attrs = attribute_ops(recorder)
    doc = summarize(attrs)
    assert doc["ops"] == len(attrs)
    assert doc["measured_s"] == pytest.approx(
        sum(a.measured_s for a in attrs), rel=1e-12
    )
    assert sum(b["ops"] for b in doc["by_kind"].values()) == len(attrs)
    assert doc["slowest"]["measured_s"] == max(a.measured_s for a in attrs)


# ---------------------------------------------------------- critical paths


@pytest.mark.parametrize("name", ["miodb", "leveldb", "slmdb"])
def test_every_interval_stall_names_its_releasing_job(name):
    __, __, recorder = _traced(name)
    interval_stalls = [
        e for e in recorder.events if e.cat == "stall" and e.dur is not None
    ]
    chains = critical_paths(recorder)
    assert len(chains) == len(interval_stalls)
    assert interval_stalls, f"{name} traced no interval stalls at this scale"
    for chain in chains:
        assert chain.cause in STALL_CAUSES
        assert chain.chain, "stall ended but no job completion matched"
        releasing = chain.chain[0]
        # The releasing job completes exactly when the stall ends.
        assert releasing["start_s"] + releasing["duration_s"] == pytest.approx(
            chain.start + chain.duration_s, abs=1e-15
        )


def test_stall_blame_accounts_every_stalled_second():
    __, __, recorder = _traced("miodb")
    chains = critical_paths(recorder)
    blame = stall_blame(chains)
    blamed = sum(s for per in blame.values() for s in per.values())
    assert blamed == pytest.approx(
        sum(c.duration_s for c in chains), rel=1e-12
    )


# ------------------------------------------------- profile and byte totals


def test_profile_foreground_plus_idle_covers_the_run():
    __, system, recorder = _traced("miodb")
    attrs = attribute_ops(recorder)
    profile = time_profile(attrs, recorder, system.clock.now)
    fg = profile["foreground"]
    assert fg["seconds"] + fg["idle_s"] == pytest.approx(
        profile["total_s"], rel=1e-12
    )
    assert fg["seconds"] == pytest.approx(
        sum(a.measured_s for a in attrs), rel=1e-12
    )
    assert profile["workers"], "no background workers profiled"
    for worker in profile["workers"].values():
        assert worker["busy_s"] == pytest.approx(
            sum(j["seconds"] for j in worker["jobs"].values()), rel=1e-12
        )


def test_persistent_bytes_match_system_accounting_exactly():
    for name in ("miodb", "leveldb", "matrixkv"):
        __, system, recorder = _traced(name)
        writes = transfer_writes(recorder)
        assert persistent_write_bytes(writes, system) == system.persistent_bytes_written()
        write = analyze_run(recorder, system, name)["write"]
        assert write["write_amplification"] == system.write_amplification()


def test_per_level_bytes_cover_all_background_jobs():
    __, __, recorder = _traced("miodb")
    levels = per_level_bytes(recorder)
    assert "flush" in levels
    assert any(label.startswith("L") for label in levels)
    spans = [
        s for s in recorder.worker_spans() if s.cat in ("flush", "compact")
    ]
    assert sum(node["jobs"] for node in levels.values()) == len(spans)
    assert sum(node["bytes"] for node in levels.values()) == sum(
        (s.args or {}).get("bytes", 0) for s in spans
    )


def _transfer(device, op, ts, nbytes):
    return TraceEvent(f"dev:{device}", op, CAT_TRANSFER, ts, None, {"bytes": nbytes})


def test_timeline_rows_count_writes_at_or_before_their_edge():
    # The cumulative window reaches back to the start of the run, so a
    # write at t = 0 is in the first row; a write exactly on an edge is
    # in that edge's row, not the row before.
    writes = [
        _transfer("nvm", "write", 0.0, 100),
        _transfer("nvm", "write", 0.5, 10),
        _transfer("nvm", "write", 1.0, 1),
    ]
    rows = {row["t_s"]: row["nvm"] for row in bytes_moved_timeline(writes, 1.0)}
    assert len(rows) == 21
    assert (rows[0.0], rows[0.45], rows[0.5], rows[0.95], rows[1.0]) == (
        100, 100, 110, 110, 111,
    )


def _bandwidth_rows(transfers):
    recorder = TraceRecorder()
    for event in transfers:
        recorder.keep(event)
    header, *rows = bandwidth_csv(recorder).splitlines()
    return header.split(","), [row.split(",") for row in rows]


def test_bandwidth_puts_a_transfer_at_the_last_instant_in_the_last_bucket():
    header, rows = _bandwidth_rows([
        _transfer("dram", "read", 0.0, 1 << 20),
        _transfer("nvm", "write", 1.0, 1 << 20),
    ])
    assert header == [
        "t_s", "dram_read_MBps", "dram_write_MBps", "nvm_read_MBps",
        "nvm_write_MBps",
    ]
    assert len(rows) == 100
    # 1 MiB in a 0.01 s bucket is 100 MB/s.
    assert rows[0] == ["0.005000000", "100.000000", "0.000000", "0.000000", "0.000000"]
    assert rows[-1] == ["0.995000000", "0.000000", "0.000000", "0.000000", "100.000000"]
    assert all(set(row[1:]) == {"0.000000"} for row in rows[1:-1])


def test_bandwidth_of_transfers_all_at_time_zero_uses_the_tiny_width():
    # No span to cut: the width is 1e-12 / 100 and every transfer lands
    # in the first bucket instead of dividing by zero.
    header, rows = _bandwidth_rows([
        _transfer("nvm", "write", 0.0, 1024),
        _transfer("nvm", "write", 0.0, 1024),
    ])
    width = 1e-12 / 100
    assert rows[0] == [
        f"{0.5 * width:.9f}", "0.000000", f"{2048 / width / 2 ** 20:.6f}",
    ]
    assert all(row[1:] == ["0.000000", "0.000000"] for row in rows[1:])


# ------------------------------------------------------ report determinism


def test_analysis_report_is_byte_identical_across_runs():
    docs = []
    for __ in range(2):
        __s, system, recorder = run_traced(
            "miodb", n=512, value_size=1024, reads=64
        )
        doc = analyze_run(recorder, system, "miodb")
        docs.append((analysis_json(doc), render_analysis(doc)))
    assert docs[0] == docs[1]
    assert docs[0][0].endswith("\n")
    assert "conservation" in docs[0][0]


def test_cluster_analysis_merges_shards_and_conserves():
    cluster, recorders = _traced_cluster()
    doc = analyze_cluster(cluster, recorders)
    assert doc["n_shards"] == 3
    assert doc["conservation"]["exact"]
    assert doc["conservation"]["ops"] == doc["attribution"]["ops"] == 700
    shard_ops = sum(
        d["attribution"]["ops"] for d in doc["shards"].values()
    )
    assert shard_ops == 700
    text = render_cluster_analysis(doc)
    assert "cluster attribution" in text
    assert analysis_json(doc) == analysis_json(analyze_cluster(cluster, recorders))


def test_cluster_analysis_rejects_mismatched_recorders():
    cluster, recorders = _traced_cluster()
    with pytest.raises(ValueError):
        analyze_cluster(cluster, recorders[:-1])


def test_ycsb_trace_mode_validation():
    with pytest.raises(ValueError):
        run_traced("miodb", n=16, mode="ycsb-z")
    with pytest.raises(ValueError):
        run_traced("miodb", n=16, mode="bogus")
