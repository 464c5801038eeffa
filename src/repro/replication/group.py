"""Replica groups: one leader + K followers with simulated WAL shipping.

A :class:`ReplicaGroup` wraps K+1 full stores -- each on its own
:class:`~repro.mem.system.HybridMemorySystem`, all sharing one simulated
clock -- behind the single-store read/write surface.  Writes go to the
leader; the leader's fresh WAL frames are pulled into the group's
replicated log and shipped to each follower over a per-follower link
device (latency + bandwidth charged through a ``repro.mem`` profile).
Followers append shipped frames to their own WAL and stage them through
``BufferedStore.stage_logged`` -- the entry point crash recovery replays
through -- rotating/flushing exactly like a recovering store would, so
follower state converges to the leader's byte-for-byte.

Three LSN watermarks order everything (LSN = 1-based index into the
group's replicated log):

- ``shipped_lsn`` -- frames handed to the link (in flight);
- ``durable_lsn`` -- frames received and appended to the follower's WAL;
- ``applied_lsn`` -- frames visible to reads on the follower.

Acks (:data:`~repro.replication.config.ACK_POLICIES`) gate the write
path on follower durability; replication lag is ``len(log) -
applied_lsn`` per follower.

Failover: killing the leader leaves the group leaderless until an
election completes.  The election requires a majority of members alive
(otherwise it stays blocked until a restart), picks the most-caught-up
follower by ``durable_lsn`` with a deterministic tie-break toward the
lowest replica id, truncates the replicated log to the winner's durable
prefix (counting any acknowledged write that would be lost -- zero under
quorum acks with majority elections), and replays the winner's tail: the
election job is serialized on the winner's apply worker, so every
already-shipped frame is applied before the new leader serves.
"""

from typing import Callable, List, Optional, Tuple

from repro.kvstore.api import paged_items, require_count
from repro.kvstore.buffered import BufferedStore
from repro.mem.device import Device
from repro.mem.profiles import REPL_LINK_PROFILE
from repro.obs.events import (
    CAT_REPL_ACK,
    CAT_REPL_APPLY,
    CAT_REPL_ELECTION,
    CAT_REPL_SHIP,
)
from repro.persist.crash import PASSIVE_INJECTOR
from repro.replication.config import (
    ELECTION_TIMEOUT_S,
    READ_FOLLOWER_RYW,
    READ_LEADER,
    ReplicationConfig,
)
from repro.sim.executor import advance, drain_all, settle_due
from repro.sim.stats import StatsRegistry

#: Most WAL frames one ship transfer to a follower bundles.
SHIP_BATCH = 8


def replication_refusal(store) -> Optional[str]:
    """Why shipping ``store``'s WAL would not reproduce it (``None``
    when it would, so the store can be a group member)."""
    if not isinstance(store, BufferedStore):
        return "it has no WAL for the group to ship and replay"
    return store.unlogged_writes


class Session:
    """Read-your-writes token: the last acked LSN per group.

    Pass the same session to ``put`` and ``get`` and the
    ``follower-ryw`` read policy will never serve a follower that has
    not yet applied this session's last acknowledged write.
    """

    __slots__ = ("_last_write",)

    def __init__(self) -> None:
        self._last_write = {}

    def note_write(self, group_id: int, lsn: int) -> None:
        if lsn > self._last_write.get(group_id, 0):
            self._last_write[group_id] = lsn

    def required_lsn(self, group_id: int) -> int:
        return self._last_write.get(group_id, 0)

    def __repr__(self) -> str:
        return f"Session({self._last_write})"


class Replica:
    """One group member: a full store on its own simulated machine."""

    __slots__ = (
        "replica_id", "store", "system", "link", "ship_worker",
        "apply_worker", "alive", "shipped_lsn", "durable_lsn",
        "applied_lsn", "ship_job", "durable_t", "durable_span",
        "bootstrap_lsn",
    )

    def __init__(self, replica_id: int, store, system, link) -> None:
        self.replica_id = replica_id
        self.store = store
        self.system = system
        self.link = link
        self.ship_worker = None
        self.apply_worker = None
        self.alive = True
        self.shipped_lsn = 0
        self.durable_lsn = 0
        self.applied_lsn = 0
        self.ship_job = None
        # When this follower last advanced durable_lsn, and the span id
        # of the ship that delivered it -- the ack decision's causal
        # parent when this follower completes the quorum.
        self.durable_t = 0.0
        self.durable_span = None
        #: The log length a replacement restarted into: it stands for
        #: election only once it holds that much durably (0 once it has).
        self.bootstrap_lsn = 0

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"Replica({self.replica_id}, {state}, "
            f"durable={self.durable_lsn}, applied={self.applied_lsn})"
        )


class ReplicaGroup:
    """Leader + K followers behind the single-store API."""

    def __init__(
        self,
        group_id: int,
        factory: Callable[[int], Tuple[object, object]],
        config: Optional[ReplicationConfig] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.group_id = group_id
        self.config = config or ReplicationConfig()
        #: Followers a write waits for; the config is fixed for the
        #: group's life, so this is read once, not per write.
        self._needed_acks = self.config.needed_follower_acks()
        #: The largest lag this group has offered ``repl.lag_peak``, a
        #: running maximum, so a lag no larger need not be offered.
        self._lag_peak = -1
        self._factory = factory
        self.stats = stats if stats is not None else StatsRegistry()
        #: Reaches ``repl.put`` / ``repl.ship`` / ``repl.apply``; a test
        #: swaps in an armed injector to crash the group mid-operation.
        self.crash = PASSIVE_INJECTOR
        #: The replicated log: leader WAL records by LSN (index + 1).
        #: Retained in full so a rebuilt replacement node can bootstrap.
        self.log: List = []
        self.acked_lsn = 0
        self.epoch = 0
        self.elections = 0
        self.leader_idx: Optional[int] = 0
        #: Deterministic failover/kill/restart event list (chaos report).
        self.history: List[dict] = []
        #: Back-reference set by the cluster layer so failover can
        #: repoint the shard at the new leader's store/system.
        self.shard = None
        self._rr = 0
        #: The winner of the election job in flight, or None.
        self._election_member: Optional[Replica] = None
        #: The last leader killed; an election moves the recorder it
        #: carried (group tracing or a shard's live recorder) onward.
        self._deposed: Optional[Replica] = None
        #: Causal replication tracing sink (a TraceRecorder), or None.
        #: Every emission site guards on this, so a group with tracing
        #: off pays one attribute load per site and never touches the
        #: clock -- simulated time is byte-identical either way.
        self.obs = None
        self._span_seq = 0
        self._append_span: Optional[int] = None
        self._kill_span: Optional[int] = None
        self.members: List[Replica] = []
        for rid in range(self.config.group_size):
            self.members.append(self._make_member(rid))
        #: The members' one clock.
        self.clock = self.members[0].system.clock
        #: Every member's executor, in member order, for the shared-clock
        #: functions of ``repro.sim.executor``.  A dead member stays
        #: listed: its crash emptied its executor and nothing submits to
        #: it again, so it is never due.  Only a restart changes the list.
        self.executors = [member.system.executor for member in self.members]
        #: Called after a restart changed ``executors``; a cluster that
        #: settles every group in one list rebuilds its list.
        self.on_restart: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------ building

    def _make_member(self, rid: int) -> Replica:
        store, system = self._factory(rid)
        reason = replication_refusal(store)
        if reason is not None:
            raise ValueError(f"store {store.name!r} cannot be replicated: {reason}")
        if self.members and system.clock is not self.members[0].system.clock:
            raise ValueError("replica group members must share one clock")
        # One standalone link device per member charges ship latency and
        # bandwidth.
        replica = Replica(rid, store, system, Device(REPL_LINK_PROFILE, system.clock))
        replica.ship_worker = system.executor.worker(
            f"repl-ship-g{self.group_id}-r{rid}"
        )
        replica.apply_worker = system.executor.worker(
            f"repl-apply-g{self.group_id}-r{rid}"
        )
        return replica

    # ------------------------------------------------------------- tracing

    def attach_tracing(self):
        """Start causal replication tracing (``repl.*`` events).

        Attaches a fresh recorder to the current leader's system, so
        leader op/stall/transfer events land in the same trace; a
        failover moves it to the new leader's system.
        """
        self.obs = self.system.attach_tracing()
        return self.obs

    def detach_tracing(self) -> None:
        """Stop emitting ``repl.*`` events (recorded events stay readable)."""
        recorder = self.obs
        self.obs = None
        if recorder is not None and recorder.attached:
            recorder.detach()

    def _next_span(self) -> int:
        """The next causal span id (unique per group, emission-ordered)."""
        self._span_seq += 1
        return self._span_seq

    def _emit(
        self, name: str, cat: str, args: dict, parent: Optional[int] = None,
        member: Optional[int] = None, span: Optional[int] = None,
        interval: Optional[Tuple[float, float]] = None,
    ) -> int:
        """Record one causal ``repl.*`` event; returns its span id.

        Callers guard on ``self.obs``.  The event lands on the group
        track (appends, acks, failover machinery) or, with ``member``,
        on that replica's track (ship/durable/apply).  ``span`` is an id
        drawn earlier (a closure needed it before the event's timing was
        known); ``interval`` makes the event a span over ``(start,
        end)`` instead of an instant.
        """
        if span is None:
            span = self._next_span()
        args = {"span": span, **args}
        if parent is not None:
            args["parent"] = parent
        track = f"repl:g{self.group_id}"
        if member is not None:
            track += f":r{member}"
        if interval is None:
            self.obs.instant(track, name, cat, args)
        else:
            self.obs.span(track, name, cat, *interval, args)
        return span

    def _note(
        self, event: str, facts: dict, parent: Optional[int] = None
    ) -> Optional[int]:
        """One membership event: a ``history`` row for the chaos report
        and, when tracing, the same facts on the group track.  Returns
        the trace span id (``None`` with tracing off)."""
        facts = {"group": self.group_id, **facts}
        self.history.append({"t": self.clock.now, "event": event, **facts})
        if self.obs is None:
            return None
        return self._emit(event, CAT_REPL_ELECTION, facts, parent=parent)

    # ---------------------------------------------------------- membership

    @property
    def election_pending(self) -> bool:
        """True while a failover election job is in flight."""
        return self._election_member is not None

    @property
    def leader(self) -> Optional[Replica]:
        if self.leader_idx is None:
            return None
        return self.members[self.leader_idx]

    @property
    def system(self):
        """The current leader's system (workload/Phase compatibility)."""
        member = self.leader if self.leader_idx is not None else self.members[0]
        return member.system

    def _role(self, member: Replica) -> str:
        """``"leader"`` for the member ``leader_idx`` names, else
        ``"follower"``: a role is read off the group, never stored."""
        return "leader" if member.replica_id == self.leader_idx else "follower"

    def alive_members(self) -> List[Replica]:
        return [m for m in self.members if m.alive]

    def alive_followers(self) -> List[Replica]:
        leader_idx = self.leader_idx
        return [
            m for m in self.members if m.alive and m.replica_id != leader_idx
        ]

    def lag(self) -> int:
        """Worst replication lag (records) across live followers."""
        followers = self.alive_followers()
        if not followers:
            return 0
        return max(len(self.log) - f.applied_lsn for f in followers)

    # ------------------------------------------------------------- plumbing

    def _advance_once(self, context: str, *args) -> None:
        """Advance the shared clock to the next member completion.

        ``context % args`` names the wait in the stall error; it is
        formatted only when the group stalls.
        """
        if not advance(self.executors):
            self._pump_all()
            if not advance(self.executors):
                raise RuntimeError(
                    f"replica group {self.group_id} stalled while {context % args}: "
                    "no pending work on any live member"
                )

    def _await_leader(self) -> Replica:
        """Block (advance simulated time) until a leader is up; returns it."""
        if self.leader_idx is None:
            start = self.clock.now
            while self.leader_idx is None:
                self._advance_once("awaiting leader election")
            self.stats.add("repl.leader_wait_s", self.clock.now - start)
        return self.members[self.leader_idx]

    # ----------------------------------------------------------- write path

    def put(self, key: bytes, value, session: Optional[Session] = None) -> float:
        """Replicated insert/update; returns latency including ack wait."""
        return self._write("put", key, value, session)

    def delete(self, key: bytes, session: Optional[Session] = None) -> float:
        """Replicated delete; returns latency including ack wait."""
        return self._write("delete", key, None, session)

    def _write(self, kind: str, key: bytes, value, session) -> float:
        settle_due(self.executors)
        leader = self._await_leader()
        if self.crash is not PASSIVE_INJECTOR:
            self.crash.reach("repl.put")
        if kind == "put":
            latency = leader.store.put(key, value)
        else:
            latency = leader.store.delete(key)
        self._pull_from_leader(leader)
        lsn = len(self.log)
        wait = self._await_acks(lsn)
        if lsn > self.acked_lsn:
            self.acked_lsn = lsn
        if session is not None:
            session.note_write(self.group_id, lsn)
        return latency + wait

    def _pull_from_leader(self, leader: Replica) -> None:
        """Move the leader's fresh WAL frames into the replicated log."""
        log = self.log
        fresh = leader.store.wal.records_since(log[-1].seq if log else 0)
        if not fresh:
            return
        log.extend(fresh)
        lsn = len(log)
        leader.shipped_lsn = leader.durable_lsn = leader.applied_lsn = lsn
        if self.obs is not None:
            self._append_span = self._emit(
                "append", CAT_REPL_SHIP, {"lsn": lsn, "records": len(fresh)},
            )
        self._pump_all()

    def _await_acks(self, lsn: int) -> float:
        needed = self._needed_acks
        if needed == 0:
            return 0.0
        followers = self.alive_followers()
        if len(followers) < needed:
            # Degraded group: fewer live followers than the policy wants.
            # Ack with what is there (availability over the policy) and
            # count it so the chaos report surfaces the weakened window.
            self.stats.add("repl.degraded_acks", 1)
            needed = len(followers)
            if needed == 0:
                return 0.0
        start = self.clock.now
        executors = self.executors
        while True:
            durable = 0
            for follower in followers:
                if follower.alive and follower.durable_lsn >= lsn:
                    durable += 1
            if durable >= needed:
                break
            if not advance(executors):  # else _advance_once pumps or raises
                self._advance_once("awaiting %s ack(s) for lsn %s", needed, lsn)
        waited = self.clock.now - start
        if waited > 0.0:
            self.stats.add("repl.ack_wait_s", waited)
        if self.obs is not None:
            self._trace_ack(lsn, needed, followers, start)
        return waited

    def _trace_ack(
        self, lsn: int, needed: int, followers: List[Replica], start: float
    ) -> None:
        """The ack decision as a span, naming the quorum straggler.

        The straggler is the ``needed``-th follower (by durability time,
        ties toward the lowest replica id) whose ``durable_lsn`` covers
        the write -- the member the leader actually waited for.  The
        span's parent is the ship that made the straggler durable, which
        chains the ack back through apply/ship/append to the client op.
        """
        reached = sorted(
            (f.durable_t, f.replica_id, f)
            for f in followers
            if f.alive and f.durable_lsn >= lsn
        )
        args = {"lsn": lsn, "needed": needed}
        parent = None
        if reached:
            straggler = reached[min(needed, len(reached)) - 1][2]
            args["straggler"] = straggler.replica_id
            parent = straggler.durable_span
        self._emit(
            "ack", CAT_REPL_ACK, args, parent=parent,
            interval=(start, self.clock.now),
        )

    # ------------------------------------------------------------- shipping

    def _pump_all(self) -> None:
        pump = self._pump
        for member in self.members:
            pump(member)

    def _pump(self, follower: Replica) -> None:
        """Ship ``follower``'s next frames if it is alive, not the leader,
        has no ship in flight and is behind the log -- the one test of
        whether a member ships."""
        start = follower.shipped_lsn
        end = len(self.log)
        if (
            start >= end
            or follower.ship_job is not None
            or not follower.alive
            or follower.replica_id == self.leader_idx
        ):
            return
        if end > start + SHIP_BATCH:
            end = start + SHIP_BATCH
        frames = self.log[start:end]
        total = 0
        for record in frames:
            total += record.frame_bytes
        seconds = follower.link.write(total, sequential=True)
        if self.crash is not PASSIVE_INJECTOR:
            self.crash.reach("repl.ship")
        epoch = self.epoch
        ship_span = self._next_span() if self.obs is not None else None

        # A job callback takes its state as parameter defaults, bound once
        # here: closing over it would build a cell per variable per ship.
        def delivered(
            self=self, follower=follower, frames=frames, end=end, epoch=epoch,
            ship_span=ship_span,
        ) -> None:
            follower.ship_job = None
            if not follower.alive or self.epoch != epoch:
                return
            self._deliver(follower, frames, end, ship_span)

        follower.ship_job = follower.system.executor.submit(
            follower.ship_worker, seconds, delivered, name=follower.ship_worker.name,
        )
        if ship_span is not None:
            # The executor computes the job's start/end at submit time,
            # so the ship span carries exact simulated link timing.
            job = follower.ship_job
            self._emit(
                "ship", CAT_REPL_SHIP,
                {
                    "lsn": end,
                    "replica": follower.replica_id,
                    "records": end - start,
                    "bytes": total,
                    "wait_s": job.start - job.submitted_at,
                },
                parent=self._append_span, member=follower.replica_id,
                span=ship_span, interval=(job.start, job.end),
            )
        follower.shipped_lsn = end
        self.stats.add("repl.shipped_records", end - start)
        self.stats.add("repl.shipped_bytes", total)

    def _deliver(
        self, follower: Replica, frames, end_lsn: int, ship_span: Optional[int]
    ) -> None:
        """Shipped frames arrived: append to the follower's WAL and apply.

        Records are staged through ``stage_logged``, as crash recovery
        does, so follower flushes and compactions fire exactly as they
        would on a recovering store.  Durability advances now;
        read visibility (``applied_lsn``) advances when the apply job --
        charged the replay's simulated cost -- completes.
        """
        store = follower.store
        seconds = 0.0
        for record in frames:
            seconds += store.wal.append(
                record.seq, record.key, record.value, record.value_bytes
            )
            seconds += store.stage_logged(
                record.key, record.seq, record.value, record.value_bytes
            )
        if end_lsn > follower.durable_lsn:
            follower.durable_lsn = end_lsn
        follower.durable_t = self.clock.now
        follower.durable_span = ship_span
        if self.crash is not PASSIVE_INJECTOR:
            self.crash.reach("repl.apply")
        count = len(frames)
        if self.obs is not None:
            self._emit(
                "durable", CAT_REPL_APPLY,
                {"lsn": end_lsn, "replica": follower.replica_id},
                parent=ship_span, member=follower.replica_id,
            )

        def applied(  # state bound as defaults, as in _pump
            self=self, follower=follower, end_lsn=end_lsn, count=count
        ) -> None:
            if not follower.alive:
                return
            if end_lsn > follower.applied_lsn:
                follower.applied_lsn = end_lsn
            self.stats.add("repl.applied_records", count)
            lag = len(self.log) - follower.applied_lsn
            if lag > self._lag_peak:
                self._lag_peak = lag
                self.stats.max("repl.lag_peak", lag)
            self._pump(follower)

        apply_job = follower.system.executor.submit(
            follower.apply_worker, seconds, applied, name=follower.apply_worker.name,
        )
        if self.obs is not None:
            self._emit(
                "apply", CAT_REPL_APPLY,
                {
                    "lsn": end_lsn,
                    "replica": follower.replica_id,
                    "records": count,
                    "wait_s": apply_job.start - apply_job.submitted_at,
                },
                parent=ship_span, member=follower.replica_id,
                interval=(apply_job.start, apply_job.end),
            )
        # Ship/apply pipelining: the next transfer can start immediately.
        self._pump(follower)
        if follower.bootstrap_lsn and self._bootstrapped(follower):
            follower.bootstrap_lsn = 0
            if self.leader_idx is None:
                # A leaderless group was waiting for this replacement.
                self._maybe_elect()

    # ------------------------------------------------------------ read path

    def get(
        self, key: bytes, session: Optional[Session] = None
    ) -> Tuple[Optional[object], float]:
        """Policy-routed lookup; returns ``(value_or_None, latency)``."""
        settle_due(self.executors)
        policy = self.config.read_policy
        reader = None if policy == READ_LEADER else self._choose_follower()
        if (
            reader is not None
            and policy == READ_FOLLOWER_RYW
            and session is not None
        ):
            target = min(session.required_lsn(self.group_id), len(self.log))
            if not self._await_applied(reader, target):
                reader = None
        if reader is None:
            reader = self._await_leader()
        return reader.store.get(key)

    def _choose_follower(self) -> Optional[Replica]:
        followers = self.alive_followers()
        if not followers:
            return None
        follower = followers[self._rr % len(followers)]
        self._rr += 1
        return follower

    def _await_applied(self, follower: Replica, target: int) -> bool:
        """Block until ``follower.applied_lsn >= target``; False if it dies."""
        start = self.clock.now
        while follower.alive and follower.applied_lsn < target:
            self._pump(follower)
            if not advance(self.executors):
                return False
        if not follower.alive:
            return False
        waited = self.clock.now - start
        if waited > 0.0:
            self.stats.add("repl.ryw_wait_s", waited)
        return True

    def scan(self, start_key: bytes, count: int):
        """Range query on the leader (linearizable)."""
        require_count(count)
        settle_due(self.executors)
        return self._await_leader().store.scan(start_key, count)

    # repro: allow[OPT001] same paging surface as KVStore.items, driven by tests/
    def items(self, start_key: bytes = b"\x00", end_key=None, page_size: int = 128):
        """Iterate live ``(key, value)`` pairs from the leader in key order."""
        return paged_items(self.scan, start_key, end_key, page_size)

    # ------------------------------------------------------------- failover

    def crash_replica(self, replica_id: int) -> None:
        """Kill one member: drop its pending work, trigger failover."""
        member = self.members[replica_id]
        if not member.alive:
            return
        member.alive = False
        member.system.executor.crash_reset()
        member.ship_job = None
        self.stats.add("repl.kills", 1)
        self._kill_span = self._note(
            "kill", {"replica": replica_id, "role": self._role(member)}
        )
        if self._election_member is member:
            # The winner died mid-election; its executor's reset dropped
            # the pending election job.
            self._election_member = None
        if self.leader_idx == replica_id:
            self.leader_idx = None
            self._deposed = member
        if self.leader_idx is None:
            self._maybe_elect()

    def _maybe_elect(self) -> None:
        if self.leader_idx is not None or self._election_member is not None:
            return
        alive = self.alive_members()
        if len(alive) < self.config.quorum_size:
            self._note(
                "election-blocked",
                {"alive": len(alive), "quorum": self.config.quorum_size},
                parent=self._kill_span,
            )
            return
        candidates = [m for m in alive if self._bootstrapped(m)]
        if not candidates:
            return  # a replacement's last bootstrap delivery re-runs this
        # Most-caught-up wins; ties break toward the lowest replica id.
        winner = candidates[0]
        for member in candidates[1:]:
            if member.durable_lsn > winner.durable_lsn:
                winner = member
        lost = self.acked_lsn - winner.durable_lsn
        if lost > 0:
            self.stats.add("repl.acked_lost", lost)
            self.acked_lsn = winner.durable_lsn
        truncated = len(self.log) - winner.durable_lsn
        if truncated > 0:
            del self.log[winner.durable_lsn:]
            self.stats.add("repl.truncated_records", truncated)
            if self.obs is not None:
                self._emit(
                    "truncate", CAT_REPL_ELECTION,
                    {
                        "group": self.group_id,
                        "records": truncated,
                        "lsn": winner.durable_lsn,
                    },
                    parent=self._kill_span,
                )
        self.epoch += 1
        for member in alive:
            if member is not winner:
                member.shipped_lsn = member.durable_lsn
                member.ship_job = None
        self._election_member = winner
        elect_span = self._next_span() if self.obs is not None else None

        def elected() -> None:
            self._election_member = None
            if not winner.alive:
                self._maybe_elect()
                return
            self.leader_idx = winner.replica_id
            # The log is the winner's durable prefix, in ascending seq:
            # its last record is the newest write the new leader holds.
            if self.log and self.log[-1].seq > winner.store.seq:
                winner.store.seq = self.log[-1].seq
            self.elections += 1
            self.stats.add("repl.elections", 1)
            self.history.append({
                "t": self.clock.now,
                "event": "elect",
                "group": self.group_id,
                "replica": winner.replica_id,
                "durable_lsn": winner.durable_lsn,
                "epoch": self.epoch,
            })
            if self.obs is not None:
                self._emit(
                    "repoint", CAT_REPL_ELECTION,
                    {
                        "group": self.group_id,
                        "replica": winner.replica_id,
                        "epoch": self.epoch,
                    },
                    parent=elect_span,
                )
            recorder = self._deposed.system.obs
            if recorder is not None:
                # The recorder follows the leader, or every op span,
                # stall and transfer after the election goes unrecorded.
                recorder.move(winner.system)
            if self.shard is not None:
                self.shard.store = winner.store
                self.shard.system = winner.system
            self._pump_all()

        # Serialized on the winner's apply worker: every frame already
        # shipped to the winner is applied (its tail replay) before it
        # takes over as leader.
        election_job = winner.system.executor.submit(
            winner.apply_worker,
            ELECTION_TIMEOUT_S,
            elected,
            name=f"repl-elect-g{self.group_id}-r{winner.replica_id}",
        )
        if elect_span is not None:
            self._emit(
                "elect", CAT_REPL_ELECTION,
                {
                    "group": self.group_id,
                    "replica": winner.replica_id,
                    "durable_lsn": winner.durable_lsn,
                },
                parent=self._kill_span, span=elect_span,
                interval=(election_job.start, election_job.end),
            )

    def _bootstrapped(self, member: Replica) -> bool:
        """Whether ``member`` holds the log it restarted into (an
        election may since have truncated that log)."""
        return member.durable_lsn >= min(member.bootstrap_lsn, len(self.log))

    def restart_replica(self, replica_id: int) -> None:
        """Bring a killed member back as a fresh replacement node.

        The replacement bootstraps from LSN 0 out of the retained
        replicated log (the simulation's stand-in for a snapshot +
        catch-up transfer), so it rejoins with no divergence regardless
        of what its previous incarnation held.  It votes at once but
        stands for election only once bootstrapped: a blank member that
        won would truncate the very log it was to bootstrap from.
        """
        if self.members[replica_id].alive:
            return
        member = self.members[replica_id] = self._make_member(replica_id)
        self.executors[replica_id] = member.system.executor
        if self.on_restart is not None:
            self.on_restart()
        member.bootstrap_lsn = len(self.log)
        self.stats.add("repl.restarts", 1)
        self._note("restart", {"replica": replica_id})
        if self.leader_idx is None:
            self._maybe_elect()
        self._pump(member)

    # ------------------------------------------------------------- draining

    def catch_up(self) -> float:
        """Run until every live follower has applied the whole log."""
        self._await_leader()
        start = self.clock.now
        while self.lag() > 0:
            self._advance_once("catching followers up")
        return self.clock.now - start

    def quiesce(self) -> float:
        """Drain background work on every live member."""
        drain_all(self.executors)
        return self.clock.now

    def snapshot(self) -> dict:
        """Deterministic metrics document for this group."""
        return {
            "group": self.group_id,
            "leader": self.leader_idx,
            "ack": self.config.ack_policy,
            "read_policy": self.config.read_policy,
            "log_lsn": len(self.log),
            "acked_lsn": self.acked_lsn,
            "epoch": self.epoch,
            "elections": self.elections,
            "members": [
                {
                    "replica": m.replica_id,
                    "role": self._role(m) if m.alive else "down",
                    "alive": m.alive,
                    "shipped_lsn": m.shipped_lsn,
                    "durable_lsn": m.durable_lsn,
                    "applied_lsn": m.applied_lsn,
                    "lag": len(self.log) - m.applied_lsn,
                }
                for m in self.members
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaGroup({self.group_id}, K={self.config.followers}, "
            f"leader={self.leader_idx}, lsn={len(self.log)})"
        )
