"""Schema and determinism tests for the repro.obs tracing layer.

Three contracts from docs/observability.md are pinned here:

- **event schema**: every store emits the event vocabulary it is
  capable of (op spans always; flush/compact/stall for stores with
  background work), timestamps are simulated and monotone, and every
  stall carries a documented ``cause``;
- **exporter schema**: the Chrome trace-event JSON document has the
  structure Perfetto expects;
- **determinism**: a seeded ``repro trace`` run is byte-identical
  across invocations, down to a pinned content hash.
"""

import hashlib
import json

import pytest

from repro.bench.factory import STORE_NAMES
from repro.obs import (
    CAT_COMPACT,
    CAT_FLUSH,
    CAT_OP,
    CAT_STALL,
    CAT_TRANSFER,
    STALL_CAUSES,
    chrome_trace_json,
    run_traced,
)

#: Which event categories each store's background machinery can emit.
#: novelsm-nosst persists everything in its NVM skip list: no flushes,
#: no compactions, and therefore nothing to stall on.
BACKGROUND_STORES = tuple(n for n in STORE_NAMES if n != "novelsm-nosst")

_RUNS = {}


def _spans(recorder, cat):
    return [e for e in recorder.events if e.is_span and e.cat == cat]


def _traced(name):
    """One traced run per store, shared across the schema tests."""
    if name not in _RUNS:
        _RUNS[name] = run_traced(name, n=2048, value_size=1024, reads=256)
    return _RUNS[name]


# ------------------------------------------------------------ event schema


@pytest.mark.parametrize("name", STORE_NAMES)
def test_every_store_emits_op_spans_with_monotone_timestamps(name):
    store, system, recorder = _traced(name)
    ops = _spans(recorder, CAT_OP)
    assert len(ops) == 2048 + 256
    assert {e.name for e in ops} == {"put", "get"}
    last = 0.0
    for event in ops:
        # Foreground ops are serial: spans are ordered and non-negative.
        assert event.ts >= last
        assert event.dur >= 0.0
        last = event.ts
    assert all(e.track == "foreground" for e in ops)
    # Every timestamp is simulated: nothing beyond the final clock.
    horizon = system.clock.now
    for event in recorder.events:
        assert 0.0 <= event.ts <= horizon
        if event.dur is not None:
            assert event.ts + event.dur <= horizon + 1e-12


@pytest.mark.parametrize(
    "mode, reader", [("fillseq", "read_seq"), ("fillrandom", "read_random")]
)
def test_trace_mode_reads_in_its_fill_order(mode, reader, monkeypatch):
    # ``fillseq`` reads sequentially, as ``repro dbbench --mode fillseq``
    # does; ``fillrandom`` reads random keys.
    import repro.workloads as workloads

    calls = []
    for name in ("read_seq", "read_random"):
        def spy(*args, _name=name, _real=getattr(workloads, name), **kwargs):
            calls.append((_name, args[1:]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(workloads, name, spy)
    run_traced("miodb", n=128, reads=32, mode=mode)
    assert calls == [(reader, (32, 128))]


@pytest.mark.parametrize("name", STORE_NAMES)
def test_transfers_carry_byte_counts_per_device(name):
    __, system, recorder = _traced(name)
    transfers = [e for e in recorder.events if e.cat == CAT_TRANSFER]
    assert not any(e.is_span for e in transfers)
    assert transfers
    for event in transfers:
        assert event.track.startswith("dev:")
        assert event.name in ("read", "write")
        assert event.args["bytes"] > 0
        assert isinstance(event.args["seq"], bool)
    device_names = {d.name for d in system.devices()}
    assert {e.track[len("dev:"):] for e in transfers} <= device_names


@pytest.mark.parametrize("name", BACKGROUND_STORES)
def test_background_stores_emit_flush_compact_and_stalls(name):
    __, __, recorder = _traced(name)
    flushes = _spans(recorder, CAT_FLUSH)
    assert flushes, f"{name} traced no flush jobs"
    assert all(e.track.startswith("worker:") for e in flushes)
    assert all(
        e.args["bytes"] > 0 for e in flushes if e.args and "bytes" in e.args
    )

    compacts = _spans(recorder, CAT_COMPACT)
    assert compacts, f"{name} traced no compactions"
    for event in compacts:
        assert event.track.startswith("worker:")
        assert event.args["level"] >= 0
        assert event.args["bytes"] > 0

    stalls = [e for e in recorder.events if e.cat == CAT_STALL]
    assert stalls, f"{name} traced no stalls at trace scale"
    for event in stalls:
        assert event.args["cause"] in STALL_CAUSES
    assert sum(recorder.stall_seconds_by_cause().values()) > 0.0


def test_nosst_store_emits_no_background_events():
    __, __, recorder = _traced("novelsm-nosst")
    counts = recorder.counts_by_category()
    assert set(counts) == {CAT_OP, CAT_TRANSFER}


def test_miodb_compactions_cover_multiple_levels():
    __, __, recorder = _traced("miodb")
    levels = {e.args["level"] for e in _spans(recorder, CAT_COMPACT)}
    assert len(levels) >= 2


# --------------------------------------------------------- exporter schema


def test_chrome_trace_document_schema():
    __, __, recorder = _traced("leveldb")
    text = chrome_trace_json(recorder, process_name="leveldb")
    doc = json.loads(text)
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["generator"] == "repro.obs"
    events = doc["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
    assert "foreground" in names
    assert any(n.startswith("worker:") for n in names)
    assert any(n.startswith("dev:") for n in names)
    assert {e["args"]["name"] for e in metadata if e["name"] == "process_name"} == {
        "leveldb"
    }
    tids = {e["tid"] for e in metadata if e["name"] == "thread_name"}
    for event in events:
        if event["ph"] == "M":
            continue
        assert event["ph"] in ("X", "i")
        assert event["pid"] == 1
        assert event["tid"] in tids
        assert event["ts"] >= 0.0
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
        else:
            assert event["s"] == "t"
    # The serialized form is compact, key-sorted JSON.
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ------------------------------------------------------------- determinism

def test_trace_run_matches_pinned_fingerprint(pin):
    __, system, recorder = run_traced("miodb", n=512, value_size=1024, reads=64)
    text = chrome_trace_json(recorder, process_name="miodb")
    pin("obs/trace-run", {
        "counts": recorder.counts_by_category(),
        "clock": system.clock.now,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    })


def _traced_cluster():
    """A small traced 3-shard cluster run (one recorder per shard)."""
    import math

    from repro.bench.config import BenchScale
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
        ClientSpec(n_ops=150, rate_per_s=math.inf, key_space=300, seed=s)
        for s in (1, 2)
    ]
    run_cluster(router, specs)
    router.quiesce()
    cluster.detach_tracing()
    return cluster, recorders


def test_multi_shard_trace_matches_pinned_fingerprint(pin):
    """One recorder (one Perfetto process) per shard of
    :func:`_traced_cluster`, merged by ``cluster_trace_json``."""
    from repro.cluster import cluster_trace_json

    cluster, recorders = _traced_cluster()
    # One process per shard: every recorder contributed its own tracks.
    assert len(recorders) == 3
    assert all(len(r) > 0 for r in recorders)
    text = cluster_trace_json(cluster, recorders)
    pin("obs/cluster-trace", hashlib.sha256(text.encode()).hexdigest())
    doc = json.loads(text)
    pids = {
        e["pid"]
        for e in doc["traceEvents"]
        if e.get("name") == "process_name"
    }
    assert len(pids) == 3


#: The single-store and live obs commands whose stdout and files are
#: pinned below (``{d}`` is the output directory).  Same-seed
#: determinism passes even when two runs drift together; these digests
#: do not, so a refactor of ``obs/`` is correct iff none of them moves.
OBS_COMMANDS = {
    "analyze-all": ["analyze", "--store", "all", "--json", "{d}/analysis.json"],
    "analyze-ycsb": ["analyze", "--store", "miodb,leveldb", "--mode", "ycsb-a",
                     "--json", "{d}/analysis.json"],
    "trace-exports": ["trace", "--store", "miodb,matrixkv",
                      "--metrics", "{d}/metrics.json",
                      "--bandwidth-csv", "{d}/bandwidth.csv",
                      "--queue-csv", "{d}/queue.csv", "--gantt",
                      "--out", "{d}/trace.json"],
    "trace-live": ["trace", "--store", "miodb", "--n", "512", "--reads", "64",
                   "--live", "--slo-threshold-us", "5", "--stall-alert-us", "10",
                   "--openmetrics", "{d}/metrics.om", "--flight-dir", "{d}/flight",
                   "--out", "{d}/trace.json"],
    "slo": ["slo", "--store", "miodb,leveldb", "--json", "{d}/slo.json"],
    "compare-analyze": ["compare", "--store", "miodb,leveldb", "--analyze"],
    "cluster-live": ["cluster", "--live", "--followers", "2", "--shards", "2",
                     "--ops", "300", "--slo-threshold-us", "5",
                     "--openmetrics", "{d}/metrics.om"],
    "cluster-analyze-repl": ["cluster", "--shards", "2", "--followers", "2",
                             "--ops", "300", "--analyze",
                             "--analyze-json", "{d}/analysis.json"],
}


@pytest.mark.parametrize("label", sorted(OBS_COMMANDS))
def test_obs_cli_artifacts_are_pinned(label, tmp_path, capsys, pin):
    from repro.cli import main

    argv = [arg.format(d=tmp_path) for arg in OBS_COMMANDS[label]]
    assert main(argv) == 0
    digests = {
        "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    }
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            digests[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    pin(f"obs-cli/{label}", digests)


def test_trace_cli_is_byte_identical_across_runs(tmp_path):
    from repro.cli import main

    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["trace", "--store", "miodb", "--n", "512", "--reads", "64"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    assert json.loads(a)["traceEvents"]


# ---------------------------------------------------------------------------
# Schema fingerprint and closed-vocabulary checks
# ---------------------------------------------------------------------------


def test_trace_event_schema_is_pinned(pin):
    """The event *schema* -- ``TraceEvent`` slots, the category tuple and
    the closed stall / drop / ``repl.*`` vocabularies -- hashes to the
    ``schema/trace-events`` pin.  The pins above hold trace *content*;
    this one moves when a vocabulary widens or a field is renamed, so
    that change is one deliberate ``--regen-pins`` with the docs."""
    from repro.obs.events import (
        CATEGORIES,
        DROP_CAUSES,
        REPL_EVENT_NAMES,
        TraceEvent,
    )

    description = repr((
        tuple(TraceEvent.__slots__),
        tuple(CATEGORIES),
        tuple(sorted(STALL_CAUSES)),
        tuple(DROP_CAUSES),
        tuple((cat, tuple(REPL_EVENT_NAMES[cat])) for cat in sorted(REPL_EVENT_NAMES)),
    ))
    pin("schema/trace-events", hashlib.sha256(description.encode()).hexdigest())


def _recorded(*events):
    """A recorder holding ``(name, cat, args)`` instants, and its check."""
    from repro.mem.system import HybridMemorySystem
    from repro.obs.recorder import check_vocabulary

    recorder = HybridMemorySystem().attach_tracing()
    for name, cat, args in events:
        recorder.instant("foreground", name, cat, args)
    return recorder, lambda: check_vocabulary(recorder)


def test_strict_recorder_rejects_unknown_category():
    recorder, check = _recorded(("op", "bogus-cat", None))
    with pytest.raises(ValueError, match="unknown trace category"):
        check()


def test_strict_recorder_rejects_unknown_stall_cause():
    __, check = _recorded(("stall", CAT_STALL, {"cause": "novel-cause"}))
    with pytest.raises(ValueError, match="unknown stall cause"):
        check()
    recorder, check = _recorded()
    recorder.span("foreground", "stall", CAT_STALL, 0.0, 1.0,
                  {"cause": "novel-cause"})
    with pytest.raises(ValueError, match="unknown stall cause"):
        check()


def test_strict_recorder_rejects_unknown_drop_reason():
    from repro.obs import CAT_QUEUE

    __, check = _recorded(("drop", CAT_QUEUE, {"cause": "cosmic-rays"}))
    with pytest.raises(ValueError, match="unknown drop reason"):
        check()


def test_strict_recorder_accepts_the_closed_vocabularies():
    from repro.obs import CAT_QUEUE, DROP_CAUSES

    recorder, check = _recorded(
        *[("stall", CAT_STALL, {"cause": cause}) for cause in sorted(STALL_CAUSES)],
        *[("drop", CAT_QUEUE, {"cause": cause}) for cause in DROP_CAUSES],
    )
    check()
    assert len(recorder) == len(STALL_CAUSES) + len(DROP_CAUSES)


def test_lenient_recorder_still_accepts_anything():
    """Recording never validates: the check is a reader after the run."""
    recorder, __ = _recorded(("stall", CAT_STALL, {"cause": "novel-cause"}))
    assert len(recorder) == 1
