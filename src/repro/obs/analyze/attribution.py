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

Attribution relies on the trace layer's emission order: a foreground
op's stall and transfer events are recorded *before* its op span (the
span is appended by ``KVStore._finish``), and a cluster queue span is
emitted just before the store executes the request.  So one linear walk
(:func:`walk_ops`) assigning pending events to the next op span
reconstructs each op's component set exactly.  The walk hands each op's
components to a sink: :class:`Accumulator` folds them into the summary,
conservation and profile aggregates without building a per-op object;
:func:`attribute_ops` keeps them as :class:`OpAttribution` records.
"""

from typing import Dict, List

from repro.obs.events import (
    CAT_OP,
    CAT_REPL_ACK,
    CAT_STALL,
    CAT_TRANSFER,
    stall_seconds,
)


def walk_ops(recorder, add) -> None:
    """Call ``add(index, kind, start, measured_s, queue_s, stall_s,
    device_s, repl_s, named_s, other_s)`` for each foreground op span in
    ``recorder``, in emission order (a shard's stream of a cluster run
    too, where ``queue`` spans precede the op they delayed).

    The three dicts are reused from op to op: a sink that keeps one
    copies it.  Every sum is taken in emission order, and ``named_s``
    adds queue, stall, device and repl values in that group order, each
    group in sorted key order.
    """
    # The open op's components (acks still fold into it), and what the
    # events since its span charge to the next op.
    stall, device, repl, next_stall, next_device = {}, {}, {}, {}, {}
    next_queue = 0.0
    #: Track -> device name (transfers) or group id (acks), split once.
    names: Dict[str, str] = {}
    index = -1
    kind = start = measured = queue = last_op_end = None
    for event in recorder.index().foreground:
        cat = event.cat
        if cat == CAT_TRANSFER:
            name = names.get(event.track)
            if name is None:
                name = names[event.track] = event.track.split(":", 1)[1]
            args = event.args
            seconds = args.get("seconds", 0.0) if args else 0.0
            next_device[name] = next_device.get(name, 0.0) + seconds
        elif cat == CAT_OP:
            if index >= 0:
                _finish(add, index, kind, start, measured, queue, stall, device, repl)
            stall, next_stall = next_stall, stall
            device, next_device = next_device, device
            queue, next_queue = next_queue, 0.0
            index += 1
            kind = event.name
            start = event.ts
            last_op_end = start + event.dur
            measured = event.dur + queue
        elif cat == CAT_REPL_ACK:
            # The ack span is emitted synchronously inside the replicated
            # write: nothing advances the clock between the leader op's
            # completion and the start of the ack wait, so an ack belongs
            # to the op span ending exactly at its start.  Acks without a
            # matching op (e.g. the recorder stayed on a deposed leader
            # whose successor serves the writes) are left to the
            # replication-phase summary instead of being misattributed.
            if event.dur is not None and index >= 0 and event.ts == last_op_end:
                group = names.get(event.track)
                if group is None:
                    group = names[event.track] = event.track.split(":g", 1)[-1]
                straggler = (event.args or {}).get("straggler")
                key = f"ack:g{group}" + ("" if straggler is None else f":r{straggler}")
                repl[key] = repl.get(key, 0.0) + event.dur
                measured += event.dur
        elif cat == CAT_STALL:
            cause = (event.args or {}).get("cause", "unknown")
            next_stall[cause] = next_stall.get(cause, 0.0) + stall_seconds(event)
        elif event.dur is not None:  # CAT_QUEUE
            next_queue += event.dur
    if index >= 0:
        _finish(add, index, kind, start, measured, queue, stall, device, repl)


def _finish(add, index, kind, start, measured, queue, stall, device, repl) -> None:
    """Hand one op to ``add``, then empty the reused dicts."""
    named = queue
    for parts in (stall, device, repl):
        if parts:
            for key in sorted(parts) if len(parts) > 1 else parts:
                named += parts[key]
    add(index, kind, start, measured, queue, stall, device, repl,
        named, measured - named)
    for parts in (stall, device, repl):
        if parts:
            parts.clear()


class OpAttribution:
    """One foreground op's latency, decomposed into named components."""

    __slots__ = ("index", "kind", "start", "end", "measured_s", "queue_s",
                 "stall_s", "device_s", "repl_s", "named_s", "other_s")

    def __init__(self, index, kind, start, measured_s, queue_s, stall_s,
                 device_s, repl_s, named_s, other_s) -> None:
        self.index = index
        self.kind = kind
        self.start = start
        self.end = start + measured_s
        self.measured_s = measured_s
        self.queue_s = queue_s
        self.stall_s = dict(stall_s)
        self.device_s = dict(device_s)
        self.repl_s = dict(repl_s)
        #: Queue + stalls + device + replication time, in fixed key order.
        self.named_s = named_s
        self.other_s = other_s


def attribute_ops(recorder) -> List[OpAttribution]:
    """Decompose every foreground op span in ``recorder`` (emission order)."""
    attributions: List[OpAttribution] = []
    walk_ops(recorder, lambda *op: attributions.append(OpAttribution(*op)))
    return attributions


def _merge(parts: Dict[str, float], total: Dict[str, float],
           kind: Dict[str, float]) -> None:
    for key, value in parts.items():
        total[key] = total.get(key, 0.0) + value
        kind[key] = kind.get(key, 0.0) + value


def _components(measured, queue, other, stall, device, repl) -> dict:
    """The component fields of one op's or one bucket's document."""
    doc = {
        "measured_s": measured,
        "queue_s": queue,
        "other_s": other,
        "stall_s": dict(sorted(stall.items())),
        "device_s": dict(sorted(device.items())),
    }
    # Only replicated ops carry the bucket, so unreplicated attribution
    # documents stay byte-identical.
    if repl:
        doc["repl_s"] = dict(sorted(repl.items()))
    return doc


class _Bucket:
    """Running totals over a set of ops, each summed in op order."""

    __slots__ = ("ops", "measured", "queue", "queued", "other",
                 "stall", "device", "repl")

    def __init__(self) -> None:
        self.ops = 0
        self.measured = self.queue = self.other = 0.0
        #: Whether any op had a nonzero queue wait (the profile's key).
        self.queued = False
        self.stall: Dict[str, float] = {}
        self.device: Dict[str, float] = {}
        self.repl: Dict[str, float] = {}

    def doc(self) -> dict:
        return {"ops": self.ops, **_components(
            self.measured, self.queue, self.other, self.stall, self.device,
            self.repl)}


class Accumulator:
    """Every per-op aggregate of one op stream, fed one op at a time.

    :meth:`add` is a :func:`walk_ops` sink.  It keeps the ``attribution``
    summary (overall and per op kind), the ``conservation`` block and
    the profile's ``foreground`` section; shard streams fed in turn give
    the router-merged view a client sees.
    """

    def __init__(self) -> None:
        self.total = _Bucket()
        self.kinds: Dict[str, _Bucket] = {}
        self.worst = 0.0
        self.negative_other = 0
        self.slowest = None
        self.slowest_s = 0.0

    def add(self, index, kind, start, measured, queue, stall, device, repl,
            named, other) -> None:
        bucket = self.kinds.get(kind)
        if bucket is None:
            bucket = self.kinds[kind] = _Bucket()
        total = self.total
        for bucket in (total, bucket):
            bucket.ops += 1
            bucket.measured += measured
            bucket.queue += queue
            bucket.other += other
            if queue:
                bucket.queued = True
        if stall:
            _merge(stall, total.stall, bucket.stall)
        if device:
            _merge(device, total.device, bucket.device)
        if repl:
            _merge(repl, total.repl, bucket.repl)
        residual = abs(measured - (named + other))
        if residual > self.worst:
            self.worst = residual
        if other < 0.0:
            self.negative_other += 1
        if measured > self.slowest_s or self.slowest is None:
            self.slowest_s = measured
            self.slowest = {"index": index, "kind": kind, "start_s": start,
                            **_components(measured, queue, other, stall, device, repl)}

    def summary(self) -> dict:
        """The ``attribution`` document; keys sorted so JSON is byte-stable."""
        doc = self.total.doc()
        doc["by_kind"] = {kind: self.kinds[kind].doc() for kind in sorted(self.kinds)}
        if self.slowest is not None:
            doc["slowest"] = self.slowest
        return doc

    def conservation(self) -> dict:
        """Whether components sum to measured latency for every op."""
        return {
            "ops": self.total.ops,
            "max_abs_residual_s": self.worst,
            "exact": self.worst == 0.0,
            "negative_other": self.negative_other,
        }

    def foreground(self, total_s: float) -> dict:
        """The profile's foreground section: op kinds and their components."""
        ops = {}
        for kind in sorted(self.kinds):
            bucket = self.kinds[kind]
            children = {f"stall:{cause}": s for cause, s in bucket.stall.items()}
            children.update((f"dev:{dev}", s) for dev, s in bucket.device.items())
            if bucket.queued:
                children["queue"] = bucket.queue
            children["other"] = bucket.other
            ops[kind] = {
                "count": bucket.ops, "seconds": bucket.measured, "children": children,
            }
        return {
            "seconds": self.total.measured,
            "idle_s": total_s - self.total.measured,
            "ops": ops,
        }


def accumulate(ops) -> Accumulator:
    """``ops`` as an :class:`Accumulator`: an :func:`attribute_ops` list
    is fed one in order, an accumulator is returned as it is."""
    if isinstance(ops, Accumulator):
        return ops
    acc = Accumulator()
    for attr in ops:
        acc.add(attr.index, attr.kind, attr.start, attr.measured_s, attr.queue_s,
                attr.stall_s, attr.device_s, attr.repl_s, attr.named_s,
                attr.other_s)
    return acc


def summarize(ops) -> dict:
    """Components of ``ops`` (an :func:`attribute_ops` list or a fed
    :class:`Accumulator`) totalled overall and per op kind."""
    return accumulate(ops).summary()
