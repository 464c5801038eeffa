"""Tests for the multi-client cluster driver and admission control."""

import math

import pytest

from repro.bench.config import BenchScale
from repro.cluster import (
    DROP_CAUSES,
    DROP_QUEUE_FULL,
    DROP_RETRY_EXHAUSTED,
    AdmissionControl,
    ClientSpec,
    Cluster,
    ShardRouter,
    cluster_metrics_json,
    run_cluster,
)
from repro.kvstore.values import SizedValue
from repro.workloads.keys import key_for

pytestmark = pytest.mark.cluster_smoke

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=256)


def make_router(n_shards=4, store_name="miodb"):
    cluster = Cluster(store_name, n_shards=n_shards, scale=SCALE)
    return ShardRouter(cluster)


def preload(router, n=500):
    for i in range(n):
        router.put(key_for(i), SizedValue(("seed", i), 256))
    router.quiesce()
    router.reset_window()


def spec(**kwargs):
    defaults = dict(n_ops=200, rate_per_s=math.inf, key_space=500, seed=1)
    defaults.update(kwargs)
    return ClientSpec(**defaults)


def test_spec_and_admission_validation():
    with pytest.raises(ValueError):
        ClientSpec(n_ops=-1, rate_per_s=1.0, key_space=10)
    with pytest.raises(ValueError):
        ClientSpec(n_ops=1, rate_per_s=0.0, key_space=10)
    with pytest.raises(ValueError):
        ClientSpec(n_ops=1, rate_per_s=float("nan"), key_space=10)
    with pytest.raises(ValueError):
        ClientSpec(n_ops=1, rate_per_s=1.0, key_space=0)
    with pytest.raises(ValueError):
        ClientSpec(n_ops=1, rate_per_s=1.0, key_space=10, read_fraction=1.5)
    for theta in (0.0, 1.0, 1.5, -0.5, float("nan")):
        with pytest.raises(ValueError, match="theta"):
            ClientSpec(n_ops=1, rate_per_s=1.0, key_space=10, theta=theta)
    with pytest.raises(ValueError, match="value_size"):
        ClientSpec(n_ops=1, rate_per_s=1.0, key_space=10, value_size=-5)
    assert spec(value_size=0).value_size == 0  # empty values are fine
    with pytest.raises(ValueError):
        AdmissionControl(max_queue_depth=0)
    with pytest.raises(ValueError):
        AdmissionControl(policy="drop-all")
    with pytest.raises(ValueError):
        AdmissionControl(max_retries=-1)
    router = make_router(n_shards=2)
    with pytest.raises(ValueError, match="2 sessions for 1 clients"):
        run_cluster(router, [spec()], sessions=[None, None])
    assert router.cluster.clock.now == 0.0  # rejected before any op ran
    assert spec().closed_loop
    assert not spec(rate_per_s=1000.0).closed_loop


def test_closed_loop_completes_every_op():
    router = make_router()
    preload(router)
    result = run_cluster(router, [spec(seed=s) for s in (1, 2, 3)])
    assert result.offered == result.completed == 600
    assert result.dropped == 0
    assert result.throughput_kiops > 0
    assert result.response.count == 600


def test_open_loop_low_rate_no_queueing():
    router = make_router()
    preload(router)
    result = run_cluster(
        router, [spec(rate_per_s=10_000.0, n_ops=150, seed=s) for s in (1, 2)]
    )
    assert result.completed == 300
    assert result.dropped == 0
    # at 1/10000 s spacing the queue never builds: response ~ service time
    assert result.response.p99 < 1e-3


def test_same_seed_produces_identical_metrics_json():
    docs = []
    for __ in range(2):
        router = make_router()
        preload(router)
        result = run_cluster(
            router,
            [spec(seed=s, theta=0.6, n_ops=300) for s in (1, 2)],
            rebalance_every=100,
        )
        docs.append(
            cluster_metrics_json(router.cluster, router, result)
        )
    assert docs[0] == docs[1]


def test_different_seed_changes_the_run():
    results = []
    for seed in (1, 99):
        router = make_router()
        preload(router)
        results.append(run_cluster(router, [spec(seed=seed)]))
    assert results[0].response.mean != results[1].response.mean


def test_reject_policy_sheds_with_queue_full_cause():
    router = make_router(n_shards=2)
    preload(router)
    admission = AdmissionControl(max_queue_depth=2, policy="reject")
    # a burst far above service capacity must overflow the tiny queues
    result = run_cluster(
        router,
        [spec(rate_per_s=5_000_000.0, n_ops=400, seed=s) for s in (1, 2)],
        admission=admission,
    )
    assert result.dropped > 0
    assert set(result.drops) == {DROP_QUEUE_FULL}
    assert result.completed + result.dropped == result.offered
    assert all(d["max_queue_depth"] <= 2 for d in result.per_shard)


def test_defer_policy_retries_then_exhausts():
    router = make_router(n_shards=2)
    preload(router)
    admission = AdmissionControl(
        max_queue_depth=2, policy="defer", max_retries=2, defer_s=1e-7
    )
    result = run_cluster(
        router,
        [spec(rate_per_s=5_000_000.0, n_ops=400, seed=s) for s in (1, 2)],
        admission=admission,
    )
    assert router.cluster.stats.get("cluster.deferred") > 0
    # every shed request went through the retry ladder first
    assert set(result.drops) <= {DROP_RETRY_EXHAUSTED}
    assert result.completed + result.dropped == result.offered


def test_drop_causes_vocabulary_is_closed():
    router = make_router(n_shards=2)
    preload(router)
    result = run_cluster(
        router,
        [spec(rate_per_s=5_000_000.0, n_ops=300)],
        admission=AdmissionControl(max_queue_depth=1),
    )
    for cause in result.drops:
        assert cause in DROP_CAUSES
    for shard in result.per_shard:
        for cause in shard["drops"]:
            assert cause in DROP_CAUSES


def test_per_shard_accounting_sums_to_totals():
    router = make_router()
    preload(router)
    result = run_cluster(router, [spec(seed=s) for s in (3, 4)])
    assert sum(d["ops"] for d in result.per_shard) == result.completed
    assert result.response.count == result.completed


def test_queueing_run_is_pinned(pin):
    """Closed- and open-loop clients contending for depth-2 queues under
    ``defer``: queues build, requests defer and some exhaust their
    retries.  The digest was generated before the serve loop was reduced
    to one request per scheduler turn; it covers the metrics document,
    the final clock and every stored tag."""
    import hashlib

    router = make_router()
    preload(router)
    result = run_cluster(
        router,
        [
            spec(seed=1, n_ops=300),
            spec(seed=2, n_ops=300),
            spec(seed=3, n_ops=300, rate_per_s=500_000.0, theta=0.9),
            spec(seed=4, n_ops=300, rate_per_s=500_000.0),
        ],
        admission=AdmissionControl(policy="defer", max_queue_depth=2),
    )
    assert router.cluster.stats.get("cluster.deferred") > 0
    assert set(result.drops) == {DROP_RETRY_EXHAUSTED}
    assert max(d["max_queue_depth"] for d in result.per_shard) == 2
    digest = hashlib.sha256()
    digest.update(cluster_metrics_json(router.cluster, router, result).encode())
    digest.update(repr(router.cluster.clock.now).encode())
    digest.update(repr([(k, v.tag) for k, v in router.items()]).encode())
    pin("cluster-driver/queueing", digest.hexdigest())


def test_replicated_queueing_run_is_pinned(pin):
    """The same contention on replicated shards: two followers per group,
    read-your-writes follower reads with one session per client, so
    reads wait on ``_await_applied``, writes on quorum acks, and idle
    turns settle every live member.  The digest was generated before
    the serve loop skipped settles with nothing due; it covers the
    metrics document (group snapshots included), the final clock and
    every stored tag."""
    import hashlib

    from repro.replication import ReplicationConfig

    cluster = Cluster(
        "miodb", n_shards=2, scale=SCALE,
        replication=ReplicationConfig(followers=2, read_policy="follower-ryw"),
    )
    router = ShardRouter(cluster)
    preload(router)
    clients = [
        spec(seed=1, n_ops=150),
        spec(seed=2, n_ops=150),
        spec(seed=3, n_ops=150, rate_per_s=500_000.0, theta=0.9),
        spec(seed=4, n_ops=150, rate_per_s=500_000.0),
    ]
    result = run_cluster(
        router,
        clients,
        admission=AdmissionControl(policy="defer", max_queue_depth=2),
        sessions=[router.session() for __ in clients],
    )
    stats = cluster.stats
    assert stats.get("cluster.deferred") > 0
    assert stats.get("repl.ryw_wait_s") > 0
    assert stats.get("repl.ack_wait_s") > 0
    assert max(d["max_queue_depth"] for d in result.per_shard) == 2
    digest = hashlib.sha256()
    digest.update(cluster_metrics_json(cluster, router, result).encode())
    digest.update(repr(cluster.clock.now).encode())
    digest.update(repr([(k, v.tag) for k, v in router.items()]).encode())
    pin("cluster-driver/replicated-queueing", digest.hexdigest())


def test_batched_driver_matches_flat_store_oracle():
    """With one closed-loop client nothing reorders: the driver must
    leave the cluster in exactly the state a flat store reaches by
    replaying the client's deterministic op stream."""
    from repro.bench.factory import make_store
    from repro.cluster.driver import _ClientState

    client = spec(n_ops=400, seed=7, read_fraction=0.4)
    router = make_router()
    preload(router)
    result = run_cluster(router, [client])
    assert result.completed == 400 and result.dropped == 0
    router.quiesce()

    flat, __ = make_store("miodb", SCALE)
    for i in range(500):
        flat.put(key_for(i), SizedValue(("seed", i), 256))
    state = _ClientState(0, client)
    for __n in range(client.n_ops):
        request = state.make_request(0.0)
        if request.kind == "get":
            flat.get(request.key)
        else:
            flat.put(request.key, SizedValue(request.tag, client.value_size))
    flat.quiesce()
    assert [(k, v.tag) for k, v in router.items()] == [
        (k, v.tag) for k, v in flat.items()
    ]


def test_skew_concentrates_traffic():
    router = make_router()
    preload(router)
    run_cluster(router, [spec(theta=0.99, n_ops=600)])
    counts = sorted(router.shard_ops)
    assert counts[-1] > 2 * counts[0]
