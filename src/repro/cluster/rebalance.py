"""Hot-shard detection and deterministic keyrange rebalancing.

Skewed workloads concentrate traffic on whichever shard owns the hot
keys' ring arcs.  :func:`detect_hot_shard` flags a shard whose share of
the routed-traffic window exceeds ``factor`` times the fair share;
:func:`rebalance_hot_shard` then moves ownership of the hot shard's
busiest ring arcs to the coldest shard and migrates the keys that now
route elsewhere.

Migration is performed *through the shards' serving surface*: moved
keys are read off the source shard with scans and replayed as puts on
the destination (plus tombstones on the source), so every migrated byte
flows through the simulated devices -- and, on a replicated cluster,
through both groups' logs to their followers -- and is charged to the
cost model: a rebalance is never free.  All choices (hot shard, destination, arcs, key order)
are pure functions of observed counts and ring state, keeping runs
bit-deterministic.

Only :class:`~repro.cluster.placement.HashRingPlacement` supports
ownership moves; range partitioning is static by design.
"""

from typing import List, Optional

from repro.cluster.placement import HashRingPlacement
from repro.kvstore.values import value_nbytes


class HotShardReport:
    """Traffic shares of one detection window."""

    def __init__(self, counts: List[int], factor: float) -> None:
        self.counts = list(counts)
        self.total = sum(counts)
        self.factor = factor
        n = len(counts)
        self.shares = [
            (c / self.total if self.total else 0.0) for c in counts
        ]
        self.hot: Optional[int] = None
        if n > 1 and self.total > 0:
            hottest = max(range(n), key=lambda i: (self.counts[i], -i))
            if self.shares[hottest] > factor / n:
                self.hot = hottest

    def __repr__(self) -> str:
        shares = ", ".join(f"{s:.2f}" for s in self.shares)
        return f"HotShardReport(hot={self.hot}, shares=[{shares}])"


class RebalanceResult:
    """What one rebalance operation moved."""

    def __init__(
        self,
        from_shard: int,
        to_shard: int,
        moved_slots: List[int],
        moved_keys: int,
        moved_bytes: int,
        at_time: float,
    ) -> None:
        self.from_shard = from_shard
        self.to_shard = to_shard
        self.moved_slots = list(moved_slots)
        self.moved_keys = moved_keys
        self.moved_bytes = moved_bytes
        self.at_time = at_time

    def __repr__(self) -> str:
        return (
            f"RebalanceResult({self.from_shard}->{self.to_shard}, "
            f"slots={len(self.moved_slots)}, keys={self.moved_keys}, "
            f"bytes={self.moved_bytes})"
        )


def detect_hot_shard(router, factor: float = 1.5) -> HotShardReport:
    """Classify the router's current traffic window.

    A shard is *hot* when its share of routed ops exceeds ``factor / n``
    (``factor`` times the fair share).  Ties break toward the lowest
    shard id for determinism.
    """
    if not factor > 1.0:
        raise ValueError(f"hot factor must be > 1, got {factor}")
    return HotShardReport(router.shard_ops, factor)


def rebalance_hot_shard(router, hot_shard: int) -> RebalanceResult:
    """Move the hot shard's busiest ring arcs to the coldest shard.

    Arcs (virtual-node ownership slots) are moved hottest-first until
    the traffic they carried in the observation window reaches half the
    load gap between source and destination -- enough to split the hot
    set without ping-ponging ownership.  At least one arc always moves,
    and the source always keeps at least one.  Keys whose owner changed
    are then replayed through the destination store and tombstoned on
    the source, charging migration to the simulated devices.
    """
    placement = router.placement
    if not isinstance(placement, HashRingPlacement):
        raise TypeError(
            f"rebalancing needs a hash-ring placement, got {placement.name!r}"
        )
    cluster = router.cluster
    n = cluster.n_shards
    if n < 2:
        raise ValueError("cannot rebalance a single-shard cluster")
    if not 0 <= hot_shard < n:
        raise ValueError(f"hot_shard {hot_shard} out of range")
    # Coldest shard by window traffic; ties toward the lowest id.
    to_shard = min(
        (i for i in range(n) if i != hot_shard),
        key=lambda i: (router.shard_ops[i], i),
    )

    slots = placement.slots_of(hot_shard)
    if len(slots) < 2:
        raise ValueError(
            f"shard {hot_shard} owns {len(slots)} arc(s); nothing movable"
        )
    # Busiest arcs first; ties toward the lower ring point.
    ranked = sorted(
        slots, key=lambda p: (-router.slot_ops.get(p, 0), p)
    )
    gap = max(0, router.shard_ops[hot_shard] - router.shard_ops[to_shard])
    target = gap / 2.0
    # Greedy under a capacity of ``target``: an arc whose traffic would
    # push the moved total past the target is skipped -- moving it
    # wholesale would overshoot and simply relocate the hot spot to the
    # destination.  Smaller arcs later in the ranking may still fit.
    moved_slots: List[int] = []
    moved_traffic = 0
    movable = ranked[: len(slots) - 1]  # the source keeps one arc
    for point in movable:
        arc_traffic = router.slot_ops.get(point, 0)
        if moved_slots and moved_traffic + arc_traffic > target:
            continue
        if arc_traffic > target and gap and arc_traffic >= gap:
            # Even alone this arc exceeds the whole load gap; moving it
            # would make the destination hotter than the source is now.
            continue
        moved_slots.append(point)
        moved_traffic += arc_traffic
        if moved_traffic >= target:
            break
    if not moved_slots:
        # Every arc overshoots: move the least-loaded one -- the best
        # single-arc improvement available at this granularity.
        moved_slots.append(
            min(movable, key=lambda p: (router.slot_ops.get(p, 0), p))
        )
    for point in moved_slots:
        placement.move_slot(point, to_shard)

    moved_keys, moved_bytes = _migrate(router, hot_shard)
    result = RebalanceResult(
        from_shard=hot_shard,
        to_shard=to_shard,
        moved_slots=moved_slots,
        moved_keys=moved_keys,
        moved_bytes=moved_bytes,
        at_time=cluster.clock.now,
    )
    stats = cluster.stats
    stats.add("cluster.rebalances", 1)
    stats.add("cluster.migrated_keys", moved_keys)
    stats.add("cluster.migrated_bytes", moved_bytes)
    return result


def _migrate(router, source_shard: int):
    """Replay keys the ring no longer assigns to ``source_shard``.

    The source shard is scanned in key order; every live pair whose
    owner changed is put on its new shard and tombstoned on the source.
    Both sides go through the shard door -- the ordinary store write
    paths, and on a replicated cluster the group log, so followers and
    a later failover see the move -- and WAL appends, flushes, and
    compactions triggered by the migration are all simulated and billed.
    """
    shards = router.cluster.shards
    source = shards[source_shard]
    placement = router.placement
    moved = [
        (key, value)
        for key, value in source.items()
        if placement.shard_for(key) != source_shard
    ]
    moved_bytes = 0
    for key, value in moved:
        shards[placement.shard_for(key)].put(key, value)
        source.delete(key)
        moved_bytes += len(key) + value_nbytes(value)
    return len(moved), moved_bytes


def maybe_rebalance(router, factor: float = 1.5):
    """One detection-plus-rebalance step; returns the move or ``None``.

    ``None`` means no shard was hot, the placement cannot move
    ownership (range partitioning), or the hot shard had nothing
    movable.  Used by the cluster driver's periodic check.
    """
    report = detect_hot_shard(router, factor)
    if report.hot is None:
        return None
    if not isinstance(router.placement, HashRingPlacement):
        return None
    try:
        return rebalance_hot_shard(router, report.hot)
    except ValueError:
        return None
