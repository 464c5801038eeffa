"""Typed trace events and the vocabularies they draw from.

Every event carries a *track* (which timeline row it belongs to), a
*category* (what kind of activity it describes), a simulated timestamp,
and -- for spans -- a duration.  Because all timestamps come from the
simulated clock, a trace is a pure function of the workload: the same
operations always produce the same events in the same order.

Track naming convention:

- ``"foreground"`` -- client operations and the stalls they suffer.
- ``"worker:<name>"`` -- one background worker (flush or compaction).
- ``"dev:<name>"`` -- one device's transfer events.
"""

from typing import Optional

# ------------------------------------------------------------- categories

#: Foreground client operation (put/get/scan/delete/batch).
CAT_OP = "op"
#: Foreground write stall; ``args["cause"]`` names the trigger.
CAT_STALL = "stall"
#: Background MemTable flush work.
CAT_FLUSH = "flush"
#: Background compaction work; ``args["level"]`` when known.
CAT_COMPACT = "compact"
#: Any other background job.
CAT_JOB = "job"
#: One device read or write; ``args["bytes"]`` is the transfer size and
#: ``args["seconds"]`` the simulated duration charged for it.  Transfers
#: emitted while computing a *background job's* cost additionally carry
#: ``args["job"] = True`` so analysis can keep them out of foreground
#: latency attribution.
CAT_TRANSFER = "transfer"
#: Admission-queue wait ahead of a served cluster request (router track).
CAT_QUEUE = "queue"
#: Replicated-log shipping: the ``append`` instant that extends the
#: group log with fresh leader WAL frames, and the per-follower ``ship``
#: span covering one batch's link transfer.  Causally linked: a ship
#: span's ``args["parent"]`` is the span id of the append that most
#: recently extended the log it ships.
CAT_REPL_SHIP = "repl.ship"
#: Follower-side ingestion: the ``durable`` instant (frames appended to
#: the follower's WAL, ``durable_lsn`` advanced) and the ``apply`` span
#: (the replay job that makes them readable).  ``args["parent"]`` is the
#: delivering ship span's id.
CAT_REPL_APPLY = "repl.apply"
#: The leader's ack decision for one replicated write: a span from the
#: write's completion on the leader to the moment the ack policy is
#: satisfied.  ``args["straggler"]`` names the follower whose durability
#: completed the quorum; ``args["parent"]`` is that follower's delivering
#: ship span.
CAT_REPL_ACK = "repl.ack"
#: Failover machinery: ``kill``/``restart`` instants, the
#: ``election-blocked``/``truncate`` instants, the ``elect`` span (the
#: election job on the winner's apply worker), and the ``repoint``
#: instant when the shard is re-pointed at the new leader.
CAT_REPL_ELECTION = "repl.election"

CATEGORIES = (
    CAT_OP,
    CAT_STALL,
    CAT_FLUSH,
    CAT_COMPACT,
    CAT_JOB,
    CAT_TRANSFER,
    CAT_QUEUE,
    CAT_REPL_SHIP,
    CAT_REPL_APPLY,
    CAT_REPL_ACK,
    CAT_REPL_ELECTION,
)

#: Closed event-name vocabulary per ``repl.*`` category.  Strict-mode
#: recorders reject names outside these sets, so the causal replication
#: trace schema stays closed the same way stall/drop causes do.
REPL_EVENT_NAMES = {
    CAT_REPL_SHIP: ("append", "ship"),
    CAT_REPL_APPLY: ("durable", "apply"),
    CAT_REPL_ACK: ("ack",),
    CAT_REPL_ELECTION: (
        "kill", "election-blocked", "truncate", "elect", "repoint", "restart",
    ),
}

# ------------------------------------------------------------ stall causes
#
# The canonical stall-cause vocabulary (docs/observability.md).  Stores
# map their own triggers onto these four: MatrixKV's matrix container
# plays the role of L0, so container slowdown/stop report as the L0
# causes; MioDB's elastic-buffer cap is the only ``buffer-cap`` source.

#: The MemTable filled while its predecessor was still flushing.
STALL_MEMTABLE_FULL = "memtable-full"
#: L0 (or the matrix container) crossed the slowdown threshold.
STALL_L0_SLOWDOWN = "l0-slowdown"
#: L0 (or the matrix container) crossed the stop threshold.
STALL_L0_STOP = "l0-stop"
#: MioDB's bounded NVM buffer needed draining before the next flush.
STALL_BUFFER_CAP = "buffer-cap"

STALL_CAUSES = frozenset(
    {STALL_MEMTABLE_FULL, STALL_L0_SLOWDOWN, STALL_L0_STOP, STALL_BUFFER_CAP}
)

# -------------------------------------------------------------- drop causes
#
# The closed load-shedding vocabulary.  Defined here (rather than in
# ``repro.cluster.driver``, which re-exports them) so
# ``check_vocabulary`` and ``repro.check`` can validate drop reasons
# without an obs -> cluster import cycle.

#: Rejected outright: the shard's admission queue was at capacity.
DROP_QUEUE_FULL = "queue_full"
#: Deferred ``max_retries`` times and the queue was still full.
DROP_RETRY_EXHAUSTED = "retry_exhausted"
#: The shard's replica group had no leader (failover window) and the
#: request exhausted its deferrals waiting for the election to finish.
DROP_NO_LEADER = "no_leader"

DROP_CAUSES = (DROP_QUEUE_FULL, DROP_RETRY_EXHAUSTED, DROP_NO_LEADER)

# -------------------------------------------------------------- the event


class TraceEvent:
    """One trace record: a span (``dur`` set) or an instant (``dur None``)."""

    __slots__ = ("track", "name", "cat", "ts", "dur", "args")

    def __init__(
        self,
        track: str,
        name: str,
        cat: str,
        ts: float,
        dur: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        self.track = track
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.args = args

    @property
    def end(self) -> float:
        """The span's end time (an instant ends when it happens)."""
        return self.ts if self.dur is None else self.ts + self.dur

    @property
    def is_span(self) -> bool:
        return self.dur is not None

    def __repr__(self) -> str:
        shape = f"dur={self.dur:.9f}" if self.dur is not None else "instant"
        return (
            f"TraceEvent({self.track!r}, {self.name!r}, cat={self.cat!r}, "
            f"ts={self.ts:.9f}, {shape})"
        )


def stall_seconds(event: TraceEvent) -> float:
    """Simulated seconds one stall event cost: an interval stall's span
    duration, a cumulative slowdown instant's ``seconds`` argument."""
    if event.dur is not None:
        return event.dur
    return (event.args or {}).get("seconds", 0.0)
