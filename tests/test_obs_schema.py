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
    to_chrome_trace,
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
    doc = to_chrome_trace(recorder, process_name="leveldb")
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
    # The serialized form is valid JSON and round-trips.
    assert json.loads(chrome_trace_json(recorder, "leveldb")) == json.loads(
        json.dumps(doc)
    )


# ------------------------------------------------------------- determinism

#: Pinned fingerprint of `run_traced("miodb", n=512, value_size=1024,
#: reads=64, seed=1)`.  The trace layer promises byte-reproducible
#: artifacts; if an intentional change to the simulated model or the
#: event vocabulary moves these, re-pin them alongside ``repro.bench.perf.PINNED``.
PINNED_COUNTS = {"transfer": 1476, "op": 576, "flush": 16, "compact": 7, "stall": 5}
PINNED_CLOCK = 0.0017989877593358522
PINNED_SHA256 = "20bae2caa49a92e3a29d55eb6184d3168c0166ca96e7ade942db6bd0e9d0915b"

#: Pinned fingerprint of the 3-shard cluster trace built by
#: :func:`_traced_cluster` below -- one recorder (one Perfetto process)
#: per shard, merged by ``cluster_trace_json``.
PINNED_CLUSTER_SHA256 = (
    "321864ed6c04d78335d2791d4f9fdd77c0c2858ae8d327a8573eb250c2ac9d0c"
)


def test_trace_run_matches_pinned_fingerprint():
    __, system, recorder = run_traced("miodb", n=512, value_size=1024, reads=64)
    assert recorder.counts_by_category() == PINNED_COUNTS
    assert system.clock.now == PINNED_CLOCK
    text = chrome_trace_json(recorder, process_name="miodb")
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


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


def test_multi_shard_trace_matches_pinned_fingerprint():
    from repro.cluster import cluster_trace_json

    cluster, recorders = _traced_cluster()
    # One process per shard: every recorder contributed its own tracks.
    assert len(recorders) == 3
    assert all(len(r) > 0 for r in recorders)
    text = cluster_trace_json(cluster, recorders)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CLUSTER_SHA256
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
}

OBS_PINS = {
    "analyze-all": {
        "stdout":
            "608af51e0555a8c48895c7b00e76cc4b1d32c1f490407e797056995f7eefa26f",
        "analysis-leveldb.json":
            "ba2de8ae5d434cae45c77e0895c46b25ebb9270994f3114f5d3719d3c83ba5ac",
        "analysis-matrixkv.json":
            "00ef90786ecb994a2ea0940e424359e66ce991020889371f0546584988b68e17",
        "analysis-miodb.json":
            "ef7ce13c2c802433f43fb4af5672db48517a1f0066fdd068f2b9a0a26ae9e66a",
        "analysis-novelsm-hier.json":
            "dcf367cdf12a60712497298d76d53b057fbcb61b752c3033cfb0334d9b570925",
        "analysis-novelsm-nosst.json":
            "44a8cbf5ed012d196338740fa5d81a2bb6af60020baff29cf8cbbbe79db97272",
        "analysis-novelsm.json":
            "073a661a5bb637c9a9ec84f75a4bb731ad816a8562af07cdfafd75f875e179d9",
        "analysis-slmdb.json":
            "b4f4ab7df1b42ebd655b303356f9aecb3a88f856d34a66be4821aca6f6402b1d",
    },
    "analyze-ycsb": {
        "stdout":
            "d28ea7e93207fbd8f2651055a6c18a951990fb9acb65b107bc802538864f3d8a",
        "analysis-leveldb.json":
            "17f31200e21fafb817828b52e31c0eb9b69e369732728f24973527d886bd9959",
        "analysis-miodb.json":
            "09d0c1679563f6147613cd220a72e0510371ad530225718c3aa47dbbd45d9db2",
    },
    "cluster-live": {
        "stdout":
            "36bfdc58ea2b558e264f77c94b6cbb8d825942c419ce2ea6225c0d5dbd0f0220",
        "metrics.om":
            "762db1b32c04b9d4f916babcc3bce1a174ed387413c0741927ced68c454549da",
    },
    "compare-analyze": {
        "stdout":
            "c4475819526d28e8076aad2082fd278e6d47ea472debdd00893ac34a5385d7c4",
    },
    "slo": {
        "stdout":
            "246982f4ea0163c92fc5ec691ba3e78387605da316092ce320e9f0f236fc0521",
        "slo-leveldb.json":
            "7077a919e74153e205ee05aab313f7181c6f21b473bb4a2a4bf64d57f4c29039",
        "slo-miodb.json":
            "4dce526bca27402863d6d45c8c02810d6c177956b76915b30a8fb0ab2d56b97a",
    },
    "trace-exports": {
        "stdout":
            "18d57ec1a34beb5fcf81d276055510215638f2a698a5e624641f66875327fabd",
        "bandwidth-matrixkv.csv":
            "e5d27320855b2f2bd199f7fb0e8aa3b9042a698df1f0979e1dc765c219b85e06",
        "bandwidth-miodb.csv":
            "b8b581fa9f767a612b3be35f32d844b62f75c5e1343aa1737cb51f188e3fa276",
        "metrics-matrixkv.json":
            "80208bd2de6713f5255e5ae3e370327408f0b39050fea3e46255db1860628d61",
        "metrics-miodb.json":
            "5b2af01009d19842658791cd45f4b6c9f4f9104618a18bff3df476ef96a68160",
        "queue-matrixkv.csv":
            "60d015191969ea5ad30afc0613d152313c338f7f60b0730d3d49ae5df381cfea",
        "queue-miodb.csv":
            "3ace951b20b2e237b3157cb02f947d83bd061dea66060b431c7d72aeb85e3a3c",
        "trace-matrixkv.json":
            "c37640d1aa87c270a88eb39d107414e988b76ae52f240d7307bdde2e1e5fa1c0",
        "trace-miodb.json":
            "2f1de7a5ef2cf6240bb7c8546bb5577b01af0af2d405599958cd366751338723",
    },
    "trace-live": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "flight/flight-miodb-0-stall-alert.json":
            "ecadbfdaa4fb500d7931e776e6ba6f0c62f0cd0dd6f94a52803b7371afd5ba8c",
        "flight/flight-miodb-1-stall-alert.json":
            "9f11b3cd0f79aae1e075180acf254eb371dcfac460adcbdad4eec35bee2412cc",
        "flight/flight-miodb-2-slo-burn.json":
            "1b43fe780b4a5144d67fe5265be30ab10c6ada3232ac6cbd0005072788cd19a9",
        "flight/flight-miodb-3-stall-alert.json":
            "287dfa161a37f0e52f1c0856c926c7c4ebfa59f4af246f77630f7b3604ec16c8",
        "metrics.om":
            "179dc8aa46eb82c3f3a51327e2ae931d290150f25a005fb044adf42f0e718276",
        "trace.json":
            "72bfb5d5933db7feff14c0f8ff8102df0e8b83bf41621add18b7d977b95ead5e",
    },
}


@pytest.mark.parametrize("label", sorted(OBS_COMMANDS))
def test_obs_cli_artifacts_are_pinned(label, tmp_path, capsys):
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
    assert digests == OBS_PINS[label]


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
# Schema fingerprint and strict-mode vocabulary enforcement
# ---------------------------------------------------------------------------


def test_schema_fingerprint_is_pinned():
    """The contract checker's schema pin tracks this file's vocabulary.

    tests/test_check_contracts.py owns the drift cases; this cross-check
    keeps the two pins (trace *content* here, trace *schema* there) from
    diverging silently.
    """
    from repro.check.contracts import PINNED_EVENT_SCHEMA, schema_fingerprint

    assert schema_fingerprint() == PINNED_EVENT_SCHEMA


def _strict_recorder():
    from repro.obs import TraceRecorder
    from repro.sim.clock import SimClock

    return TraceRecorder(SimClock(), strict=True)


def test_strict_recorder_rejects_unknown_category():
    recorder = _strict_recorder()
    with pytest.raises(ValueError, match="unknown trace category"):
        recorder.span("foreground", "op", "bogus-cat", 0.0, 1.0)


def test_strict_recorder_rejects_unknown_stall_cause():
    recorder = _strict_recorder()
    with pytest.raises(ValueError, match="unknown stall cause"):
        recorder.span(
            "foreground", "stall", CAT_STALL, 0.0, 1.0,
            {"cause": "novel-cause"},
        )
    with pytest.raises(ValueError, match="unknown stall cause"):
        recorder.instant(
            "foreground", "stall", CAT_STALL, {"cause": "novel-cause"}
        )


def test_strict_recorder_rejects_unknown_drop_reason():
    from repro.obs import CAT_QUEUE

    recorder = _strict_recorder()
    with pytest.raises(ValueError, match="unknown drop reason"):
        recorder.instant(
            "shard0", "drop", CAT_QUEUE, {"cause": "cosmic-rays"}
        )


def test_strict_recorder_accepts_the_closed_vocabularies():
    from repro.obs import CAT_QUEUE, DROP_CAUSES

    recorder = _strict_recorder()
    for cause in sorted(STALL_CAUSES):
        recorder.span(
            "foreground", "stall", CAT_STALL, 0.0, 1.0, {"cause": cause}
        )
    for cause in DROP_CAUSES:
        recorder.instant("shard0", "drop", CAT_QUEUE, {"cause": cause})
    assert len(recorder) == len(STALL_CAUSES) + len(DROP_CAUSES)


def test_lenient_recorder_still_accepts_anything():
    """Default mode is unchanged: validation is strictly opt-in."""
    from repro.obs import TraceRecorder
    from repro.sim.clock import SimClock

    recorder = TraceRecorder(SimClock())
    recorder.span("foreground", "stall", CAT_STALL, 0.0, 1.0,
                  {"cause": "novel-cause"})
    assert len(recorder) == 1
