"""Seeded chaos harness: kill/restart replicas mid-workload, then audit.

The harness drives a replicated cluster with the standard cluster
driver while a :class:`ChaosInjector` fires a seeded
:class:`ChaosSchedule` of replica kills (leaders and followers) and
delayed restarts, all keyed off completed-op counts -- so the whole
scenario is a pure function of its seed.  After the run it audits the
surviving state:

- **Oracle match** -- a fresh unreplicated store replays each group's
  replicated log (the acknowledged history) and must hold exactly the
  leader's live pairs.
- **Follower convergence** -- after catch-up, every live follower holds
  exactly the leader's live pairs.
- **No acked loss** -- under quorum acks the ``repl.acked_lost``
  counter (writes acknowledged but truncated by a failover election)
  must be zero.

:func:`run_chaos` returns a deterministic report document;
:func:`repro.obs.export.document_json` serializes it byte-identically for
identical seeds (only simulated times appear -- no wall clock).
"""

from typing import Callable, List, Optional

from repro.replication.config import (
    ACK_QUORUM,
    READ_LEADER,
    ReplicationConfig,
)
from repro.sim.rng import XorShiftRng
from repro.skiplist.node import TOMBSTONE

#: Completed ops between a kill and its victim's restart.
RESTART_GAP_OPS = 80
#: Kill points one schedule draws.
KILLS = 3
#: The scenario's one closed-loop client: key universe, share of gets,
#: nominal value bytes.
KEY_SPACE = 512
READ_FRACTION = 0.3
VALUE_SIZE = 128


class ChaosEvent:
    """One scheduled fault: kill a replica when ``at`` ops completed."""

    __slots__ = ("at", "group", "target")

    def __init__(self, at: int, group: int, target: str) -> None:
        self.at = at
        self.group = group
        self.target = target  # "leader" | "follower"

    def describe(self) -> dict:
        return {"at": self.at, "group": self.group, "target": self.target}

    def __repr__(self) -> str:
        return f"ChaosEvent(at={self.at}, g{self.group}, {self.target})"


class ChaosSchedule:
    """A seeded list of kill events."""

    def __init__(self, events: List[ChaosEvent]) -> None:
        self.events = sorted(events, key=lambda e: e.at)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_groups: int,
        span_ops: int = 400,
    ) -> "ChaosSchedule":
        """Draw :data:`KILLS` kill points inside the middle of the run.

        Kill times land in ``[span*0.1, span*0.9]`` so the run has a
        warm-up and a post-fault tail; each event picks its group and
        whether to target the leader or a follower from the same seeded
        stream.
        """
        if span_ops < 10:
            raise ValueError(f"span_ops must be >= 10, got {span_ops}")
        rng = XorShiftRng(seed)
        lo = span_ops // 10
        hi = max(lo + 1, (span_ops * 9) // 10)
        points = set()
        while len(points) < KILLS:
            points.add(lo + rng.next_below(hi - lo))
        events = []
        for at in sorted(points):
            group = rng.next_below(n_groups)
            target = "leader" if rng.next_float() < 0.5 else "follower"
            events.append(ChaosEvent(at, group, target))
        return cls(events)

    def describe(self) -> List[dict]:
        return [event.describe() for event in self.events]


class ChaosInjector:
    """Fires a :class:`ChaosSchedule` against a router's replica groups.

    ``maybe_fire(completed)`` is called by the cluster driver after
    every completion.  A kill fires only when its target group is fully
    healthy (every member alive and durably caught up to the acked LSN)
    -- rolling, one-fault-at-a-time chaos, which is exactly the regime
    where quorum acks promise zero acknowledged-write loss.  Kills that
    find an unhealthy group are recorded as skipped, keeping the report
    honest about coverage.  Each kill schedules the victim's restart
    :data:`RESTART_GAP_OPS` completed ops later.
    """

    def __init__(self, router, schedule: ChaosSchedule) -> None:
        self.router = router
        self.schedule = schedule
        self.fired: List[dict] = []
        self.skipped: List[dict] = []
        self._next = 0
        self._restarts: List = []  # (at, group, replica), sorted

    def _group(self, group_id: int):
        group = self.router.cluster.shards[group_id].group
        if group is None:
            raise ValueError(f"shard {group_id} has no replica group")
        return group

    def _healthy(self, group) -> bool:
        if group.leader_idx is None:
            return False
        for member in group.members:
            if not member.alive or member.durable_lsn < group.acked_lsn:
                return False
        return True

    def _kill(self, event: ChaosEvent, completed: int) -> None:
        group = self._group(event.group)
        if not self._healthy(group):
            self.skipped.append(
                {"at": completed, "group": event.group,
                 "target": event.target, "why": "group not healthy"}
            )
            return
        if event.target == "leader":
            victim = group.leader_idx
        else:
            followers = group.alive_followers()
            if not followers:
                self.skipped.append(
                    {"at": completed, "group": event.group,
                     "target": event.target, "why": "no live follower"}
                )
                return
            victim = min(f.replica_id for f in followers)
        group.crash_replica(victim)
        self.fired.append(
            {"at": completed, "group": event.group,
             "target": event.target, "replica": victim}
        )
        self._restarts.append(
            (completed + RESTART_GAP_OPS, event.group, victim)
        )
        self._restarts.sort()

    def maybe_fire(self, completed: int) -> None:
        """Fire every restart and kill due at ``completed``."""
        while self._restarts and self._restarts[0][0] <= completed:
            __, group_id, replica = self._restarts.pop(0)
            self._group(group_id).restart_replica(replica)
        while (
            self._next < len(self.schedule.events)
            and self.schedule.events[self._next].at <= completed
        ):
            event = self.schedule.events[self._next]
            self._next += 1
            self._kill(event, completed)

    def flush_restarts(self) -> int:
        """Fire every still-pending restart (end-of-run cleanup)."""
        count = 0
        while self._restarts:
            __, group_id, replica = self._restarts.pop(0)
            self._group(group_id).restart_replica(replica)
            count += 1
        return count


def _oracle_state(group, store_name: str, scale) -> dict:
    """Replay the group's acknowledged log into a fresh flat store."""
    from repro.bench.factory import make_store

    oracle, __ = make_store(store_name, scale)
    for record in group.log:
        if record.value is TOMBSTONE:
            oracle.delete(record.key)
        else:
            oracle.put(record.key, record.value)
    oracle.quiesce()
    return dict(oracle.items())


def run_chaos(
    store_name: str = "miodb",
    seed: int = 1,
    shards: int = 2,
    followers: int = 2,
    ops: int = 400,
    ack_policy: str = ACK_QUORUM,
    read_policy: str = READ_LEADER,
    scale=None,
    trace: Optional[Callable[[str], object]] = None,
) -> dict:
    """One seeded kill/restart scenario; returns the audit report.

    With ``trace`` set, the scenario runs under full causal tracing:
    ``trace`` is called with the merged multi-shard trace document
    (JSON text), and every group document gains a ``failover_timeline`` (kill -> election ->
    truncation -> re-point, reconstructed from the ``repl.election``
    events' parent links).  Tracing adds zero simulated time, so the
    audit results and every simulated number in the report are
    byte-identical with tracing off.
    """
    from repro.cluster.driver import AdmissionControl, ClientSpec, run_cluster
    from repro.cluster.router import Cluster, ShardRouter

    config = ReplicationConfig(
        followers=followers, ack_policy=ack_policy, read_policy=read_policy
    )
    cluster = Cluster(
        store_name, n_shards=shards, scale=scale, replication=config
    )
    router = ShardRouter(cluster)
    recorders = cluster.attach_tracing() if trace is not None else None
    schedule = ChaosSchedule.generate(seed, shards, span_ops=ops)
    injector = ChaosInjector(router, schedule)
    clients = [
        ClientSpec(
            n_ops=ops,
            rate_per_s=float("inf"),
            key_space=KEY_SPACE,
            read_fraction=READ_FRACTION,
            value_size=VALUE_SIZE,
            seed=seed,
        )
    ]
    sessions = [router.session() for __ in clients]
    result = run_cluster(
        router,
        clients,
        admission=AdmissionControl(policy="defer"),
        chaos=injector,
        sessions=sessions,
    )
    injector.flush_restarts()
    cluster.quiesce()
    groups = cluster.groups
    for group in groups:
        group.catch_up()
    cluster.quiesce()
    timelines = None
    if recorders is not None:
        from repro.cluster.metrics import cluster_trace_json
        from repro.obs.analyze import failover_timelines

        timelines = [failover_timelines(recorder) for recorder in recorders]
        cluster.detach_tracing()
        trace(cluster_trace_json(cluster, recorders))

    oracle_match = True
    followers_match = True
    group_docs = []
    for group in groups:
        leader_state = dict(group.items())
        oracle_state = _oracle_state(group, store_name, scale)
        g_oracle = leader_state == oracle_state
        g_followers = all(
            dict(follower.store.items()) == leader_state
            for follower in group.alive_followers()
        )
        oracle_match = oracle_match and g_oracle
        followers_match = followers_match and g_followers
        doc = group.snapshot()
        doc["live_keys"] = len(leader_state)
        doc["oracle_match"] = g_oracle
        doc["followers_match"] = g_followers
        doc["history"] = list(group.history)
        if timelines is not None:
            doc["failover_timeline"] = timelines[group.group_id]
        group_docs.append(doc)

    stats = cluster.stats
    acked_lost = stats.get("repl.acked_lost")
    no_acked_loss = acked_lost == 0.0
    checks = {
        "oracle_match": oracle_match,
        "followers_match": followers_match,
        "no_acked_loss": no_acked_loss,
    }
    return {
        "schema": 1,
        "store": store_name,
        "seed": seed,
        "shards": shards,
        "followers": followers,
        "ack": ack_policy,
        "read_policy": read_policy,
        "ops": ops,
        "schedule": schedule.describe(),
        "fired": injector.fired,
        "skipped": injector.skipped,
        "offered": result.offered,
        "completed": result.completed,
        "drops": result.drops,
        "sim_time_s": cluster.clock.now,
        "kills": stats.get("repl.kills"),
        "restarts": stats.get("repl.restarts"),
        "elections": stats.get("repl.elections"),
        "degraded_acks": stats.get("repl.degraded_acks"),
        "acked_lost": acked_lost,
        "groups": group_docs,
        "checks": checks,
        "ok": all(checks.values()),
    }
