"""Oracle for the one-walk analyzer.

The four-pass implementation that :func:`repro.obs.analyze.attribution.walk_ops`
and its :class:`~repro.obs.analyze.attribution.Accumulator` replaced lives on
below, verbatim: ``OpAttribution``, ``attribute_ops``, ``_aggregate``,
``summarize``, ``conservation_check`` and ``time_profile``'s foreground loop.
Every document the analyzer builds from one walk must equal (``==``, floats
to the last bit) what the four passes build, on a dbbench trace, a YCSB-A
trace, a 3-shard cluster with admission queues and a 2-follower quorum
cluster.  Between them the traces hold interval stalls, cumulative slowdown
stalls, ack waits, and acks with no matching op.
"""

import json
import random
from typing import Dict, Iterable, List, Optional

import pytest

from repro.bench.config import BenchScale
from repro.kvstore.values import SizedValue
from repro.obs import run_traced
from repro.obs import analyze
from repro.obs.events import (
    CAT_OP,
    CAT_QUEUE,
    CAT_REPL_ACK,
    CAT_STALL,
    CAT_TRANSFER,
    TraceEvent,
    stall_seconds,
)
from repro.obs.recorder import TraceRecorder
from repro.workloads.keys import key_for

pytestmark = pytest.mark.obs_smoke


# ------------------------------------------- the reference implementation


class OpAttribution:
    """One foreground op's latency, decomposed into named components."""

    __slots__ = (
        "index",
        "kind",
        "start",
        "end",
        "measured_s",
        "queue_s",
        "stall_s",
        "device_s",
        "repl_s",
        "other_s",
    )

    def __init__(
        self,
        index: int,
        kind: str,
        start: float,
        measured_s: float,
        queue_s: float,
        stall_s: Dict[str, float],
        device_s: Dict[str, float],
    ) -> None:
        self.index = index
        self.kind = kind
        self.start = start
        self.end = start + measured_s
        self.measured_s = measured_s
        self.queue_s = queue_s
        self.stall_s = stall_s
        self.device_s = device_s
        self.repl_s: Dict[str, float] = {}
        self.other_s = measured_s - self.named_total()

    def named_total(self) -> float:
        """Queue + stalls + device + replication time, in fixed key order."""
        total = self.queue_s
        for cause in sorted(self.stall_s):
            total += self.stall_s[cause]
        for device in sorted(self.device_s):
            total += self.device_s[device]
        for key in sorted(self.repl_s):
            total += self.repl_s[key]
        return total

    def extend_repl(self, key: str, seconds: float) -> None:
        """Fold a replication ack wait into this op's decomposition.

        The ack wait happens *after* the leader's op span (the client
        blocks on the ack policy once the local write is done), so the
        measured latency grows by the same amount and conservation holds
        by construction -- ``other_s`` is recomputed as the measured
        remainder.
        """
        self.repl_s[key] = self.repl_s.get(key, 0.0) + seconds
        self.measured_s += seconds
        self.end = self.start + self.measured_s
        self.other_s = self.measured_s - self.named_total()

    def components_total(self) -> float:
        """All components including ``other_s`` -- equals ``measured_s``."""
        return self.named_total() + self.other_s

    def residual_s(self) -> float:
        """Conservation residual; exactly zero when the invariant holds."""
        return self.measured_s - self.components_total()

    def as_dict(self) -> dict:
        doc = {
            "index": self.index,
            "kind": self.kind,
            "start_s": self.start,
            "measured_s": self.measured_s,
            "queue_s": self.queue_s,
            "stall_s": dict(sorted(self.stall_s.items())),
            "device_s": dict(sorted(self.device_s.items())),
            "other_s": self.other_s,
        }
        # Only replicated ops carry the bucket, so unreplicated
        # attribution documents stay byte-identical.
        if self.repl_s:
            doc["repl_s"] = dict(sorted(self.repl_s.items()))
        return doc

    def __repr__(self) -> str:
        return (
            f"OpAttribution(#{self.index} {self.kind!r}, "
            f"measured={self.measured_s * 1e6:.2f}us, "
            f"other={self.other_s * 1e6:.2f}us)"
        )


def attribute_ops(recorder) -> List[OpAttribution]:
    """Decompose every foreground op span in ``recorder`` (emission order).

    Works on a single-store trace and on one shard's stream of a
    cluster run (where ``queue`` spans precede the op they delayed).
    """
    attributions: List[OpAttribution] = []
    pending: List = []
    last_op_end = None
    for event in recorder.index().foreground:
        cat = event.cat
        if cat == CAT_REPL_ACK:
            # The ack span is emitted synchronously inside the replicated
            # write: nothing advances the clock between the leader op's
            # completion and the start of the ack wait, so an ack belongs
            # to the op span ending exactly at its start.  Acks without a
            # matching op (e.g. the recorder stayed on a deposed leader
            # whose successor serves the writes) are left to the
            # replication-phase summary instead of being misattributed.
            if (
                event.dur is not None
                and attributions
                and event.ts == last_op_end
            ):
                args = event.args or {}
                group = event.track.split(":g", 1)[-1]
                straggler = args.get("straggler")
                key = (
                    f"ack:g{group}" if straggler is None
                    else f"ack:g{group}:r{straggler}"
                )
                attributions[-1].extend_repl(key, event.dur)
        elif cat == CAT_OP:
            last_op_end = event.end
            queue_s, stall_s, device_s = _aggregate(pending)
            attributions.append(
                OpAttribution(
                    index=len(attributions),
                    kind=event.name,
                    start=event.ts,
                    measured_s=event.dur + queue_s,
                    queue_s=queue_s,
                    stall_s=stall_s,
                    device_s=device_s,
                )
            )
            pending = []
        else:
            pending.append(event)
    return attributions


def _aggregate(events):
    """Sum pending events into (queue_s, stall_s, device_s) in order.

    Addition order matches the emission order, so the float totals are
    identical to accumulating eagerly as each event is recorded.
    """
    queue_s = 0.0
    stall_s: Dict[str, float] = {}
    device_s: Dict[str, float] = {}
    for event in events:
        cat = event.cat
        if cat == CAT_TRANSFER:
            args = event.args or {}
            device = event.track.split(":", 1)[1]
            device_s[device] = device_s.get(device, 0.0) + args.get("seconds", 0.0)
        elif cat == CAT_STALL:
            cause = (event.args or {}).get("cause", "unknown")
            stall_s[cause] = stall_s.get(cause, 0.0) + stall_seconds(event)
        else:  # CAT_QUEUE
            if event.dur is not None:
                queue_s += event.dur
    return queue_s, stall_s, device_s


def _merge_into(totals: Dict[str, float], parts: Dict[str, float]) -> None:
    for key, value in parts.items():
        totals[key] = totals.get(key, 0.0) + value


def _bucket() -> dict:
    return {
        "ops": 0,
        "measured_s": 0.0,
        "queue_s": 0.0,
        "other_s": 0.0,
        "stall_s": {},
        "device_s": {},
        "repl_s": {},
    }


def summarize(attributions: Iterable[OpAttribution]) -> dict:
    """Aggregate per-op attributions into a deterministic summary doc.

    Components are totalled overall and per op kind; keys are sorted so
    the JSON serialization is byte-stable.  Shard lists from a cluster
    run can simply be concatenated before summarizing.
    """
    total = _bucket()
    by_kind: Dict[str, dict] = {}
    max_measured: Optional[OpAttribution] = None
    for attr in attributions:
        if attr.kind not in by_kind:
            by_kind[attr.kind] = _bucket()
        for bucket in (total, by_kind[attr.kind]):
            bucket["ops"] += 1
            bucket["measured_s"] += attr.measured_s
            bucket["queue_s"] += attr.queue_s
            bucket["other_s"] += attr.other_s
            _merge_into(bucket["stall_s"], attr.stall_s)
            _merge_into(bucket["device_s"], attr.device_s)
            _merge_into(bucket["repl_s"], attr.repl_s)
        if max_measured is None or attr.measured_s > max_measured.measured_s:
            max_measured = attr
    for bucket in [total] + list(by_kind.values()):
        bucket["stall_s"] = dict(sorted(bucket["stall_s"].items()))
        bucket["device_s"] = dict(sorted(bucket["device_s"].items()))
        # The replication bucket only appears on traces that have one,
        # keeping unreplicated summary documents byte-identical.
        if bucket["repl_s"]:
            bucket["repl_s"] = dict(sorted(bucket["repl_s"].items()))
        else:
            del bucket["repl_s"]
    doc = dict(total)
    doc["by_kind"] = {kind: by_kind[kind] for kind in sorted(by_kind)}
    if max_measured is not None:
        doc["slowest"] = max_measured.as_dict()
    return doc


def conservation_check(attributions) -> dict:
    """Verify components sum to measured latency for every op."""
    worst = 0.0
    negative_other = 0
    for attr in attributions:
        residual = abs(attr.residual_s())
        if residual > worst:
            worst = residual
        if attr.other_s < 0.0:
            negative_other += 1
    return {
        "ops": len(attributions),
        "max_abs_residual_s": worst,
        "exact": worst == 0.0,
        "negative_other": negative_other,
    }


def old_foreground(attributions: List[OpAttribution], total_s: float) -> dict:
    """``time_profile``'s foreground section, as the four passes built it."""
    foreground: Dict[str, dict] = {}
    fg_total = 0.0
    for attr in attributions:
        node = foreground.setdefault(
            attr.kind,
            {"count": 0, "seconds": 0.0, "children": {}},
        )
        node["count"] += 1
        node["seconds"] += attr.measured_s
        fg_total += attr.measured_s
        children = node["children"]
        for cause in sorted(attr.stall_s):
            key = f"stall:{cause}"
            children[key] = children.get(key, 0.0) + attr.stall_s[cause]
        for device in sorted(attr.device_s):
            key = f"dev:{device}"
            children[key] = children.get(key, 0.0) + attr.device_s[device]
        if attr.queue_s:
            children["queue"] = children.get("queue", 0.0) + attr.queue_s
        children["other"] = children.get("other", 0.0) + attr.other_s

    return {
        "seconds": fg_total,
        "idle_s": total_s - fg_total,
        "ops": {kind: foreground[kind] for kind in sorted(foreground)},
    }


# ------------------------------------------------------------- the traces

SCALE = BenchScale(memtable_bytes=8 << 10, dataset_bytes=1 << 20, value_size=256)


def _cluster_run(replication=None):
    """A traced open-loop cluster run; returns (cluster, recorders)."""
    from repro.cluster import ClientSpec, Cluster, ShardRouter, run_cluster

    shards = 3 if replication is None else 2
    cluster = Cluster(
        "miodb", n_shards=shards, scale=SCALE, replication=replication)
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
    return cluster, recorders


def _odd_acks(recorder):
    """Two acks the walk must leave out (one before any op, one whose
    start is no op's end), then one with no straggler that folds into
    the last op."""
    last = [e for e in recorder.events if e.cat == CAT_OP][-1]
    recorder.events.insert(0, TraceEvent(
        "repl:g0", "ack", CAT_REPL_ACK, 0.0, 1e-6, {"straggler": 1}))
    recorder.keep(TraceEvent(
        "repl:g0", "ack", CAT_REPL_ACK, last.end + 1e-3, 2e-6, {"straggler": 2}))
    recorder.keep(TraceEvent("repl:g0", "ack", CAT_REPL_ACK, last.end, 3e-6, {}))


def _same(new, old):
    """Equal as values and as JSON (which also tells -0.0 from 0.0)."""
    assert new == old
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


def _fields(attr):
    return (attr.index, attr.kind, attr.start, attr.end, attr.measured_s,
            attr.queue_s, attr.stall_s, attr.device_s, attr.repl_s, attr.other_s)


def _check_foreground(recorder, end_s):
    """The per-op records and the documents built from them equal the
    reference's."""
    old = attribute_ops(recorder)
    new = analyze.attribute_ops(recorder)
    assert [_fields(a) for a in new] == [_fields(a) for a in old]
    _same(analyze.summarize(new), summarize(old))
    _same(analyze.conservation_check(new), conservation_check(old))
    _same(analyze.time_profile(new, recorder, end_s)["foreground"],
          old_foreground(old, end_s))
    return old


def _check_stream(recorder, system, name):
    """:func:`_check_foreground`, and ``analyze_run``'s one walk too."""
    end_s = system.clock.now
    old = _check_foreground(recorder, end_s)
    doc = analyze.analyze_run(recorder, system, name)
    _same(doc["attribution"], summarize(old))
    _same(doc["conservation"], conservation_check(old))
    _same(doc["profile"]["foreground"], old_foreground(old, end_s))
    return old


def _stalls(attrs):
    return sum(bool(a.stall_s) for a in attrs)


# -------------------------------------------------------------- the tests


def test_dbbench_trace_matches_reference():
    # MatrixKV reports its container slowdown as cumulative instants.
    __, system, recorder = run_traced(
        "matrixkv", n=512, value_size=1024, reads=64)
    assert any(e.cat == CAT_STALL and e.dur is None for e in recorder.events)
    assert _stalls(_check_stream(recorder, system, "matrixkv"))


def test_ycsb_trace_matches_reference():
    __, system, recorder = run_traced(
        "leveldb", n=512, value_size=1024, reads=64, mode="ycsb-a")
    stalls = [e for e in recorder.events if e.cat == CAT_STALL]
    assert {e.dur is None for e in stalls} == {True, False}
    assert _stalls(_check_stream(recorder, system, "leveldb"))


def test_queued_cluster_matches_reference():
    cluster, recorders = _cluster_run()
    merged = []
    doc = analyze.analyze_cluster(cluster, recorders)
    for shard, recorder in zip(cluster.shards, recorders):
        merged += _check_stream(recorder, shard.system, "miodb")
        _same(doc["shards"][str(shard.shard_id)]["attribution"],
              summarize(attribute_ops(recorder)))
    assert sum(a.queue_s > 0.0 for a in merged) > 0
    _same(doc["attribution"], summarize(merged))
    _same(doc["conservation"], conservation_check(merged))


def test_quorum_cluster_matches_reference():
    from repro.replication import ReplicationConfig

    cluster, recorders = _cluster_run(ReplicationConfig(followers=2))
    for recorder in recorders:
        _odd_acks(recorder)
    streams = [
        _check_stream(recorder, shard.system, "miodb")
        for shard, recorder in zip(cluster.shards, recorders)
    ]
    for stream in streams:
        assert "ack:g0" in stream[-1].repl_s
    merged = [attr for stream in streams for attr in stream]
    acks = sum(len(r.index().of(CAT_REPL_ACK)) for r in recorders)
    assert 0 < sum(len(a.repl_s) for a in merged) <= acks - 2 * len(recorders)
    doc = analyze.analyze_cluster(cluster, recorders)
    _same(doc["attribution"], summarize(merged))
    _same(doc["conservation"], conservation_check(merged))


def test_synthetic_trace_matches_reference():
    """Real traces charge near-constant device times, where most sum
    orders agree; random magnitudes over three devices, two stall causes
    and two ack keys per op make every summation order show."""
    rng = random.Random(46)
    recorder = TraceRecorder()
    keep = recorder.keep
    now = 0.0
    for i in range(400):
        for __ in range(rng.randrange(4)):
            keep(TraceEvent("router", "wait", CAT_QUEUE, now, rng.random() * 1e-3))
        for __ in range(rng.randrange(6)):
            device = rng.choice(("dram", "nvm", "ssd"))
            seconds = rng.random() * 10.0 ** -rng.randrange(3, 9)
            args = {"bytes": 64, "seq": True, "seconds": seconds}
            if rng.random() < 0.2:
                args["job"] = True
            keep(TraceEvent(f"dev:{device}", "write", CAT_TRANSFER, now, None, args))
        for __ in range(rng.randrange(3)):
            cause = rng.choice(("memtable-full", "l0-slowdown"))
            if rng.random() < 0.5:  # an interval stall
                dur, args = rng.random() * 1e-4, {"cause": cause}
            else:  # a cumulative slowdown
                dur, args = None, {"cause": cause, "seconds": rng.random() * 1e-5}
            keep(TraceEvent("foreground", "stall", CAT_STALL, now, dur, args))
        dur = rng.random() * 1e-4
        keep(TraceEvent("foreground", rng.choice(("put", "get")), CAT_OP, now, dur))
        now += dur
        for group in range(rng.randrange(3)):
            straggler = rng.choice((None, 1, 2))
            args = {} if straggler is None else {"straggler": straggler}
            wait = rng.random() * 1e-4
            keep(TraceEvent(f"repl:g{group}", "ack", CAT_REPL_ACK, now, wait, args))
        if rng.random() < 0.1:  # an ack that matches no op's end
            keep(TraceEvent("repl:g0", "ack", CAT_REPL_ACK, now + 1.0, 1e-6, {}))
        now += rng.random() * 1e-5
    attrs = _check_foreground(recorder, now)
    assert sum(len(a.device_s) == 3 for a in attrs) > 0
    assert sum(len(a.stall_s) == 2 for a in attrs) > 0
    assert sum(len(a.repl_s) == 2 for a in attrs) > 0
