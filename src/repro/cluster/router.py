"""The cluster topology and the shard router.

A :class:`Cluster` instantiates N shards -- each a full store built by
:func:`repro.bench.factory.make_store` on its own
:class:`~repro.mem.system.HybridMemorySystem` -- coordinated on one
shared :class:`~repro.sim.clock.SimClock`.  Sharing the clock makes the
shards' foreground operations and background jobs mutually ordered: one
serving context drives the whole cluster (the "shared-clock" model), so
aggregate throughput scales with shard count only as far as per-shard
work actually gets cheaper (smaller structures, overlapped background
work) -- the saturation point the scale-out benchmark measures.

A :class:`ShardRouter` exposes the single-store ``KVStore`` API over the
cluster: ``put``/``get``/``delete`` route by placement policy, ``scan``
scatter-gathers across every shard and merges (keys are disjoint across
shards, so the merge is a plain ordered union).  The router also keeps
the per-slot traffic counts that hot-shard detection and rebalancing
consume.
"""

import heapq
from itertools import islice
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.bench.factory import make_store
from repro.cluster.placement import make_placement
from repro.kvstore.api import paged_items, require_count, require_key
from repro.kvstore.values import value_nbytes
from repro.mem.system import HybridMemorySystem
from repro.obs.live.recorder import LiveRecorder
from repro.replication.group import ReplicaGroup, Session
from repro.sim.clock import SimClock
from repro.sim.executor import drain_all, settle_due
from repro.sim.stats import StatsRegistry


class Shard:
    """One cluster member: a store on its own simulated machine.

    With replication enabled the shard fronts a whole
    :class:`~repro.replication.group.ReplicaGroup`: ``group`` is set,
    and ``store``/``system`` track the group's *current leader* (the
    group repoints them on failover).

    ``put``/``get``/``delete``/``scan``/``items`` are the one door into
    the shard: each looks ``group`` and ``store`` up at call time, so
    the router, the driver and the rebalancer never ask whether a shard
    is replicated -- and a caller that reassigns either attribute (a
    benchmark's ledger proxy) still sees every op.
    """

    __slots__ = ("shard_id", "store", "system", "group")

    def __init__(self, shard_id: int, store, system, group=None) -> None:
        self.shard_id = shard_id
        self.store = store
        self.system = system
        self.group = group

    def put(self, key: bytes, value, session=None) -> float:
        """Insert or update ``key`` (leader write + ack policy if replicated)."""
        if self.group is not None:
            return self.group.put(key, value, session)
        return self.store.put(key, value)

    def get(self, key: bytes, session=None) -> Tuple[Optional[object], float]:
        """Point lookup (read-policy routed if replicated)."""
        if self.group is not None:
            return self.group.get(key, session)
        return self.store.get(key)

    def delete(self, key: bytes, session=None) -> float:
        """Tombstone ``key``."""
        if self.group is not None:
            return self.group.delete(key, session)
        return self.store.delete(key)

    def scan(self, start_key: bytes, count: int):
        """The first ``count`` live pairs from ``start_key``."""
        if self.group is not None:
            return self.group.scan(start_key, count)
        return self.store.scan(start_key, count)

    def items(self):
        """Iterate the shard's live ``(key, value)`` pairs in key order."""
        if self.group is not None:
            return self.group.items()
        return self.store.items()

    def __repr__(self) -> str:
        return f"Shard({self.shard_id}, {self.store.name})"


class Cluster:
    """N shard stores on one shared simulated clock."""

    def __init__(
        self,
        store_name: str = "miodb",
        n_shards: int = 4,
        scale=None,
        ssd: bool = False,
        replication=None,
        **overrides,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.store_name = store_name
        self.clock = SimClock()
        #: Cluster-level counters (routed ops, drops, migration bytes,
        #: and -- with replication on -- the ``repl.*`` family).
        self.stats = StatsRegistry()
        self.replication = replication
        self.shards: List[Shard] = []

        def build(rid=None):
            """One store on a fresh machine that shares the cluster clock."""
            return make_store(
                store_name, scale,
                system=HybridMemorySystem(ssd=ssd, clock=self.clock),
                **overrides
            )

        for shard_id in range(n_shards):
            if replication is not None:
                group = ReplicaGroup(
                    shard_id, build, replication, stats=self.stats
                )
                shard = Shard(
                    shard_id, group.leader.store, group.leader.system, group
                )
                group.shard = shard
            else:
                shard = Shard(shard_id, *build())
            self.shards.append(shard)
        #: Every shard's executors in settle order (shards in order, then
        #: members in order) as one list, so a settle is one pass; a group
        #: that restarts a member replaces its executor, and rebuilds this
        #: list in place through ``on_restart``.
        self._executors: List[object] = []
        self._list_executors()
        for shard in self.shards:
            if shard.group is not None:
                shard.group.on_restart = self._list_executors

    def _list_executors(self) -> None:
        self._executors[:] = [
            executor
            for shard in self.shards
            for executor in (
                [shard.system.executor] if shard.group is None
                else shard.group.executors
            )
        ]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def groups(self) -> List[Optional[object]]:
        """Per-shard replica groups (``None`` entries when unreplicated)."""
        return [shard.group for shard in self.shards]

    def settle_all(self) -> None:
        """Apply every shard's background effects due at the current time."""
        settle_due(self._executors)

    def quiesce(self) -> float:
        """Drain background work on every shard; returns the final time."""
        drain_all(self._executors)
        return self.clock.now

    def attach_tracing(self) -> List[object]:
        """Attach a fresh trace recorder to every shard.

        Returns the recorders in shard order; all share the cluster
        clock, so their event streams interleave on one timeline.  Use
        :func:`repro.cluster.metrics.cluster_trace_json` to export
        them as one multi-process Perfetto document with shard-id
        metadata.

        Replicated shards additionally route their group's causal
        ``repl.*`` events (append/ship/durable/apply/ack and failover)
        into the shard's recorder, so quorum-ack latency decomposes on
        the same timeline as the leader's op spans.
        """
        return [
            (shard.system if shard.group is None else shard.group).attach_tracing()
            for shard in self.shards
        ]

    def detach_tracing(self) -> None:
        """Detach every shard's recorder (idempotent)."""
        for shard in self.shards:
            if shard.group is not None:
                shard.group.detach_tracing()
            # attach_live attaches to the shard's system, not its group;
            # an election moves it with ``shard.system`` to the new leader.
            shard.system.detach_tracing()

    def attach_live(self, seed: int = 1, **options) -> List[object]:
        """Attach a live (sampled) recorder to every shard.

        Returns the recorders in shard order.  Each shard gets its own
        sampling seed (``seed`` + shard id), so head-sampled runs are
        decorrelated across shards while every shard's retained set
        stays a pure function of the cluster seed.  ``options`` are
        :class:`~repro.obs.live.recorder.LiveRecorder`'s
        ``slo_threshold_s`` and ``stall_alert_s``; detach with
        :meth:`detach_tracing`.
        """
        return [
            LiveRecorder(seed + shard.shard_id, **options).attach(shard.system)
            for shard in self.shards
        ]

    def __repr__(self) -> str:
        return (
            f"Cluster({self.store_name!r}, shards={self.n_shards}, "
            f"t={self.clock.now:.6f})"
        )


class ShardRouter:
    """Routes the ``KVStore`` API across a cluster by placement policy."""

    def __init__(
        self,
        cluster: Cluster,
        placement_name: str = "hash-ring",
        key_space: Optional[int] = None,
        vnodes_per_shard: int = 32,
    ) -> None:
        self.cluster = cluster
        self.placement = make_placement(
            placement_name,
            cluster.n_shards,
            key_space=key_space,
            vnodes_per_shard=vnodes_per_shard,
        )
        #: Routed ops per shard since the last :meth:`reset_window`.
        self.shard_ops: List[int] = [0] * cluster.n_shards
        #: Routed ops per placement slot (ring point / range index)
        #: since the last window reset -- the granularity rebalancing moves.
        self.slot_ops: Dict[int, int] = {}

    # ------------------------------------------------------------ routing

    def route(self, key: bytes) -> int:
        """The shard id serving ``key``; records window traffic counts.

        A key the stores would refuse is refused here, before it counts.
        """
        require_key(key)
        return self._route(key)

    def _route(self, key: bytes) -> int:
        """:meth:`route` for a key already known to be valid.

        ``run_cluster`` routes only keys its clients drew from
        ``key_for``, and the store validates each one when it serves
        the request, so its requests are validated once.
        """
        slot, shard = self.placement.locate(key)
        self.shard_ops[shard] += 1
        self.slot_ops[slot] = self.slot_ops.get(slot, 0) + 1
        self.cluster.stats.add("cluster.routed_ops", 1)
        return shard

    def reset_window(self) -> None:
        """Zero the traffic window (after a hot-shard check/rebalance)."""
        self.shard_ops = [0] * self.cluster.n_shards
        self.slot_ops = {}

    # ------------------------------------------------------- KVStore API

    def session(self):
        """A read-your-writes session token for replicated clusters."""
        return Session()

    def put(self, key: bytes, value, session=None) -> float:
        """Insert or update ``key`` on its owning shard.

        On a replicated cluster the write goes through the shard's
        replica group (leader write + ack policy); if the group is
        mid-election this blocks until a leader is up.  A value the
        stores would refuse is refused here, before :meth:`route` counts it.
        """
        value_nbytes(value)
        return self.cluster.shards[self.route(key)].put(key, value, session)

    def get(self, key: bytes, session=None) -> Tuple[Optional[object], float]:
        """Point lookup on the owning shard (read-policy routed)."""
        return self.cluster.shards[self.route(key)].get(key, session)

    def delete(self, key: bytes, session=None) -> float:
        """Tombstone ``key`` on its owning shard."""
        return self.cluster.shards[self.route(key)].delete(key, session)

    def scan(self, start_key: bytes, count: int):
        """Scatter-gather range query across every shard.

        Each shard returns its first ``count`` live pairs from
        ``start_key``; the union is merged in key order and truncated.
        Because placement assigns each key to exactly one shard, the
        merged stream has no duplicates.  The reported latency is the
        total simulated time the scatter-gather occupied (the shards
        execute in sequence on the shared clock).
        """
        require_count(count)
        start = self.cluster.clock.now
        results = [
            shard.scan(start_key, count)[0] for shard in self.cluster.shards
        ]
        self.cluster.stats.add("cluster.scatter_scans", 1)
        merged = list(islice(heapq.merge(*results, key=itemgetter(0)), count))
        return merged, self.cluster.clock.now - start

    # repro: allow[OPT001] same paging surface as KVStore.items, driven by tests/
    def items(self, start_key: bytes = b"\x00", end_key: Optional[bytes] = None,
              page_size: int = 128):
        """Iterate live ``(key, value)`` pairs cluster-wide in key order."""
        return paged_items(self.scan, start_key, end_key, page_size)

    def quiesce(self) -> float:
        """Drain background work on every shard."""
        return self.cluster.quiesce()

    def __repr__(self) -> str:
        return (
            f"ShardRouter({self.placement.name}, "
            f"shards={self.cluster.n_shards})"
        )
