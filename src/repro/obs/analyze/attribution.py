"""Per-operation latency attribution.

Every foreground op span is decomposed into named components:

- ``queue_s`` -- admission-queue wait ahead of the op (cluster runs;
  the router emits one ``queue`` span per served request);
- ``stall_s`` -- per-cause stalled time, from the closed
  :data:`~repro.obs.events.STALL_CAUSES` vocabulary (interval stall
  spans contribute their duration, cumulative slowdown instants their
  ``seconds`` argument);
- ``device_s`` -- per-device transfer time charged to the op itself
  (transfers tagged ``job`` belong to background work whose cost was
  computed inline and are excluded);
- ``repl_s`` -- replication ack wait (quorum-ack runs; one ``repl.ack``
  span per replicated write, keyed by the straggler follower that
  completed the quorum), folded into the op's measured latency because
  the client-visible write latency includes it;
- ``other_s`` -- everything else (CPU search/serialize time, WAL
  framing, bloom probes), defined as the measured latency minus the
  named components so the decomposition conserves by construction.

The conservation invariant -- components sum back to the measured
simulated latency -- is checked with :meth:`OpAttribution.components_total`;
``tests/test_analyze.py`` asserts it for every traced op.

Attribution relies on the trace layer's emission order: a foreground
op's stall and transfer events are recorded *before* its op span (the
span is appended by ``KVStore._finish``), and a cluster queue span is
emitted just before the store executes the request.  So a linear walk
assigning pending events to the next op span reconstructs each op's
component set exactly.
"""

from typing import Dict, Iterable, List, Optional

from repro.obs.events import (
    CAT_OP,
    CAT_REPL_ACK,
    CAT_STALL,
    CAT_TRANSFER,
    stall_seconds,
)


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
