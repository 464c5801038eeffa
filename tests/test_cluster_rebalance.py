"""Tests for hot-shard detection and keyrange rebalancing."""

import pytest

from repro.bench.config import BenchScale
from repro.cluster import (
    Cluster,
    ShardRouter,
    detect_hot_shard,
    maybe_rebalance,
    rebalance_hot_shard,
)
from repro.kvstore.values import SizedValue
from repro.workloads.keys import key_for

pytestmark = pytest.mark.cluster_smoke

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=256)


def make_router(n_shards=4):
    cluster = Cluster("miodb", n_shards=n_shards, scale=SCALE)
    return ShardRouter(cluster)


def load_skewed(router, hot_shard=None, n=2000):
    """Route traffic so one shard is clearly hot; returns that shard."""
    for i in range(n):
        router.put(key_for(i), SizedValue(i, 256))
    if hot_shard is None:
        hot_shard = max(
            range(router.cluster.n_shards), key=lambda s: router.shard_ops[s]
        )
    # hammer keys owned by the hot shard to push it past the threshold
    hot_keys = [
        key_for(i)
        for i in range(n)
        if router.placement.shard_for(key_for(i)) == hot_shard
    ]
    for __ in range(3):
        for key in hot_keys:
            router.get(key)
    return hot_shard


def test_detect_hot_shard():
    router = make_router()
    hot = load_skewed(router)
    report = detect_hot_shard(router, factor=1.5)
    assert report.hot == hot
    assert report.shares[hot] > 1.5 / 4
    assert sum(report.counts) == report.total


def test_detect_nothing_hot_on_uniform_traffic():
    router = make_router()
    for i in range(2000):
        router.get(key_for(i))
    assert detect_hot_shard(router, factor=1.5).hot is None


def test_detect_factor_validation():
    router = make_router()
    for factor in (1.0, float("nan")):
        with pytest.raises(ValueError):
            detect_hot_shard(router, factor=factor)


def test_rebalance_moves_arcs_keys_and_bytes():
    router = make_router()
    hot = load_skewed(router)
    router.quiesce()
    before_time = router.cluster.clock.now
    result = rebalance_hot_shard(router, hot)
    assert result.from_shard == hot
    assert result.to_shard != hot
    assert result.moved_slots
    assert result.moved_keys > 0
    assert result.moved_bytes > result.moved_keys * 256
    # migration runs through the stores: simulated time was charged
    router.quiesce()
    assert router.cluster.clock.now > before_time
    stats = router.cluster.stats
    assert stats.get("cluster.rebalances") == 1
    assert stats.get("cluster.migrated_keys") == result.moved_keys
    assert stats.get("cluster.migrated_bytes") == result.moved_bytes


def test_rebalance_preserves_every_key():
    router = make_router()
    n = 1500
    hot = load_skewed(router, n=n)
    rebalance_hot_shard(router, hot)
    router.quiesce()
    for i in range(n):
        value, __ = router.get(key_for(i))
        assert value is not None and value.tag == i, i


def test_rebalance_reduces_hot_share():
    router = make_router()
    hot = load_skewed(router)
    before = detect_hot_shard(router, factor=1.5)
    rebalance_hot_shard(router, hot)
    router.quiesce()
    router.reset_window()
    # replay the same traffic pattern against the new ownership map
    load_skewed(router, hot_shard=hot)
    after = detect_hot_shard(router, factor=1.5)
    assert after.shares[hot] < before.shares[hot]


def test_rebalance_validation():
    router = make_router()
    load_skewed(router)
    with pytest.raises(ValueError):
        rebalance_hot_shard(router, 99)
    single = make_router(n_shards=1)
    with pytest.raises(ValueError):
        rebalance_hot_shard(single, 0)


def test_maybe_rebalance_noop_when_balanced():
    router = make_router()
    for i in range(2000):
        router.get(key_for(i))
    assert maybe_rebalance(router) is None


def test_maybe_rebalance_moves_when_hot():
    router = make_router()
    load_skewed(router)
    result = maybe_rebalance(router)
    assert result is not None
    assert result.moved_slots


# ------------------------------------------------- rebalance + replication


def test_rebalance_on_a_replicated_cluster_goes_through_the_group_log():
    """Migrated keys enter the destination group's log (and the source's
    tombstones its own): followers converge on their leader, and a
    leader kill on the destination loses nothing."""
    from repro.replication import ReplicationConfig

    cluster = Cluster(
        "miodb", n_shards=2, scale=SCALE,
        replication=ReplicationConfig(followers=2),
    )
    router = ShardRouter(cluster)
    n = 400
    hot = load_skewed(router, n=n)
    result = rebalance_hot_shard(router, hot)
    assert result.moved_keys > 0
    for group in cluster.groups:
        group.catch_up()
        leader_state = dict(group.items())
        for follower in group.alive_followers():
            assert dict(follower.store.items()) == leader_state, (
                group.group_id, follower.replica_id
            )
    destination = cluster.groups[result.to_shard]
    destination.crash_replica(destination.leader_idx)
    for i in range(n):
        value, __ = router.get(key_for(i))
        assert value is not None and value.tag == i, i
    assert cluster.stats.get("repl.acked_lost") == 0
