"""Tests for the cluster topology and the shard router."""

import math

import pytest

from repro.bench.config import BenchScale
from repro.cluster import (
    DROP_NO_LEADER,
    AdmissionControl,
    ClientSpec,
    Cluster,
    HashRingPlacement,
    ShardRouter,
    run_cluster,
)
from repro.kvstore.values import SizedValue
from repro.replication import READ_FOLLOWER_RYW, ReplicationConfig
from repro.workloads.keys import key_for

pytestmark = pytest.mark.cluster_smoke

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=256)


def make_router(n_shards=4, store_name="miodb"):
    cluster = Cluster(store_name, n_shards=n_shards, scale=SCALE)
    return ShardRouter(cluster)


def test_shards_share_one_clock():
    cluster = Cluster("miodb", n_shards=3, scale=SCALE)
    clocks = {id(shard.system.clock) for shard in cluster.shards}
    assert clocks == {id(cluster.clock)}


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster("miodb", n_shards=0, scale=SCALE)


def _client(**count):
    return ClientSpec(**{"n_ops": 10, "rate_per_s": math.inf,
                         "key_space": 100, **count})


@pytest.mark.parametrize("build", [
    lambda bad: _client(n_ops=bad),
    lambda bad: _client(key_space=bad),
    lambda bad: _client(value_size=bad),
    lambda bad: AdmissionControl(max_queue_depth=bad),
    lambda bad: AdmissionControl(max_retries=bad),
    lambda bad: Cluster("miodb", n_shards=bad, scale=SCALE),
    lambda bad: HashRingPlacement(bad),
    lambda bad: HashRingPlacement(2, vnodes_per_shard=bad),
    lambda bad: ReplicationConfig(followers=bad),
], ids=[
    "client-n_ops", "client-key_space", "client-value_size",
    "admission-max_queue_depth", "admission-max_retries", "cluster-n_shards",
    "ring-n_shards", "ring-vnodes_per_shard", "replication-followers",
])
@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_a_count_that_is_not_an_int_is_refused_at_construction(build, bad):
    with pytest.raises(TypeError, match="must be an int"):
        build(bad)


def test_put_get_delete_route_consistently():
    router = make_router()
    for i in range(300):
        router.put(key_for(i), SizedValue(i, 256))
    router.quiesce()
    for i in range(300):
        value, __ = router.get(key_for(i))
        assert value is not None and value.tag == i, i
    router.delete(key_for(7))
    value, __ = router.get(key_for(7))
    assert value is None


@pytest.mark.parametrize("key", [b"", "str", bytearray(b"key1")])
def test_router_refuses_a_bad_key_before_counting_it(key):
    router = make_router()
    for op in (lambda: router.put(key, SizedValue(0, 256)),
               lambda: router.get(key), lambda: router.delete(key)):
        with pytest.raises(ValueError, match="non-empty bytes"):
            op()
    assert router.cluster.stats.get("cluster.routed_ops") == 0
    assert router.shard_ops == [0] * router.cluster.n_shards
    assert router.slot_ops == {}


@pytest.mark.parametrize("followers", [0, 2])
def test_router_refuses_a_bytearray_value(followers):
    config = ReplicationConfig(followers=followers) if followers else None
    cluster = Cluster("miodb", n_shards=2, scale=SCALE, replication=config)
    router = ShardRouter(cluster)
    with pytest.raises(TypeError, match="pass bytes or SizedValue"):
        router.put(key_for(1), bytearray(b"abcd"))
    assert all(shard.store.seq == 0 for shard in cluster.shards)
    assert router.get(key_for(1))[0] is None


@pytest.mark.parametrize("followers", [0, 2])
def test_router_refuses_a_bad_value_before_counting_it(followers):
    config = ReplicationConfig(followers=followers) if followers else None
    cluster = Cluster("miodb", n_shards=2, scale=SCALE, replication=config)
    router = ShardRouter(cluster)
    with pytest.raises(TypeError, match="pass bytes or SizedValue"):
        router.put(key_for(1), bytearray(b"abcd"))
    assert cluster.stats.get("cluster.routed_ops") == 0
    assert router.shard_ops == [0, 0]
    assert router.slot_ops == {}


def test_keys_are_spread_across_shards():
    router = make_router()
    for i in range(2000):
        router.put(key_for(i), SizedValue(i, 256))
    assert all(ops > 0 for ops in router.shard_ops)


def test_scan_scatter_gather_matches_flat_order():
    router = make_router()
    model = {}
    for i in range(500):
        router.put(key_for(i), SizedValue(i, 256))
        model[key_for(i)] = i
    router.quiesce()
    start = key_for(123)
    pairs, elapsed = router.scan(start, 50)
    expected = sorted(k for k in model if k >= start)[:50]
    assert [k for k, __v in pairs] == expected
    assert all(v.tag == model[k] for k, v in pairs)
    assert elapsed >= 0


def test_scan_validation():
    router = make_router(n_shards=2)
    with pytest.raises(ValueError):
        router.scan(b"a", -1)


def test_items_iterates_cluster_in_key_order():
    router = make_router()
    for i in range(300):
        router.put(key_for(i), SizedValue(i, 256))
    router.quiesce()
    keys = [k for k, __v in router.items(page_size=37)]
    assert keys == [key_for(i) for i in range(300)]
    bounded = [
        k for k, __v in router.items(start_key=key_for(10), end_key=key_for(20))
    ]
    assert bounded == [key_for(i) for i in range(10, 20)]


def test_window_counts_and_reset():
    router = make_router(n_shards=2)
    for i in range(100):
        router.get(key_for(i))
    assert sum(router.shard_ops) == 100
    assert sum(router.slot_ops.values()) == 100
    assert router.cluster.stats.get("cluster.routed_ops") == 100
    router.reset_window()
    assert router.shard_ops == [0, 0]
    assert router.slot_ops == {}
    # the cumulative stat survives the window reset
    assert router.cluster.stats.get("cluster.routed_ops") == 100


def test_quiesce_drains_every_shard():
    router = make_router()
    for i in range(800):
        router.put(key_for(i), SizedValue(i, 1024))
    router.quiesce()
    for shard in router.cluster.shards:
        assert not shard.system.executor.pending


def make_replicated_router(n_shards=2, followers=2, **config_kwargs):
    config = ReplicationConfig(followers=followers, **config_kwargs)
    cluster = Cluster("miodb", n_shards=n_shards, scale=SCALE, replication=config)
    return ShardRouter(cluster)


def test_replicated_router_routes_through_groups():
    router = make_replicated_router()
    assert all(shard.group is not None for shard in router.cluster.shards)
    for i in range(200):
        router.put(key_for(i), SizedValue(i, 256))
    router.quiesce()
    for i in range(200):
        value, __ = router.get(key_for(i))
        assert value is not None and value.tag == i, i
    pairs, __ = router.scan(key_for(0), 200)
    assert len(pairs) == 200


def test_replicated_router_session_reads_own_writes():
    router = make_replicated_router(read_policy=READ_FOLLOWER_RYW)
    session = router.session()
    for i in range(60):
        router.put(key_for(i), SizedValue(i, 256), session=session)
        value, __ = router.get(key_for(i), session=session)
        assert value is not None and value.tag == i, i


def test_router_blocks_through_pending_election():
    router = make_replicated_router()
    for i in range(50):
        router.put(key_for(i), SizedValue(i, 256))
    for group in router.cluster.groups:
        group.catch_up()
    victim = router.cluster.groups[0]
    victim.crash_replica(victim.leader_idx)
    assert victim.election_pending
    # Direct router ops on the electing shard block through the
    # election (simulated time is charged) and then succeed.
    for i in range(50, 100):
        router.put(key_for(i), SizedValue(i, 256))
    assert victim.leader_idx is not None
    router.quiesce()
    for i in range(100):
        value, __ = router.get(key_for(i))
        assert value is not None and value.tag == i, i


@pytest.mark.parametrize("target", ["leader", "follower"])
def test_dead_member_executor_stays_empty(target):
    # The shared-clock loops visit a dead member's executor too; they
    # rely on its crash having emptied it and on nothing submitting to
    # it again while it is down.
    router = make_replicated_router(n_shards=1)
    group = router.cluster.groups[0]
    for i in range(200):
        router.put(key_for(i), SizedValue(i, 256))
    victim = group.leader_idx if target == "leader" else 1
    group.crash_replica(victim)
    dead = group.members[victim].system.executor
    submitted = sum(worker.jobs_run for worker in dead.workers)
    assert dead.pending == 0
    for i in range(200, 500):
        router.put(key_for(i), SizedValue(i, 256))
        router.get(key_for(i - 200))
        assert dead.pending == 0, i
    router.quiesce()
    assert sum(worker.jobs_run for worker in dead.workers) == submitted
    group.restart_replica(victim)
    assert group.executors == [m.system.executor for m in group.members]
    assert group.executors[victim] is not dead


def _kill_below_majority(group):
    """Leave one alive member: below the quorum of 2, election blocked."""
    alive = [m.replica_id for m in group.alive_members()]
    group.crash_replica(group.leader_idx)
    for rid in alive:
        if len(list(group.alive_members())) <= 1:
            break
        if group.members[rid].alive:
            group.crash_replica(rid)
    assert group.leader_idx is None and not group.election_pending


def test_leaderless_shard_sheds_with_no_leader_cause():
    router = make_replicated_router(n_shards=2, followers=2)
    for group in router.cluster.groups:
        _kill_below_majority(group)
    spec = ClientSpec(n_ops=100, rate_per_s=math.inf, key_space=200, seed=1)
    result = run_cluster(
        router, [spec], admission=AdmissionControl(policy="reject")
    )
    # Every request ends as an accounted no_leader drop -- never silent.
    assert result.completed == 0
    assert result.drops.get(DROP_NO_LEADER) == result.offered
    assert result.completed + result.dropped == result.offered


def test_leaderless_shard_defers_before_shedding():
    router = make_replicated_router(n_shards=2, followers=2)
    _kill_below_majority(router.cluster.groups[0])
    spec = ClientSpec(n_ops=100, rate_per_s=math.inf, key_space=200, seed=1)
    result = run_cluster(
        router,
        [spec],
        admission=AdmissionControl(policy="defer", max_retries=2),
    )
    # The healthy shard serves; the dead shard defers then sheds.
    assert result.completed > 0
    assert result.drops.get(DROP_NO_LEADER, 0) > 0
    assert router.cluster.stats.get("cluster.deferred") > 0
    assert result.completed + result.dropped == result.offered
