"""Cluster scale-out and skew benchmarks (extension; not a paper artifact).

The paper evaluates one store on one machine.  These benchmarks put N
full store instances behind the ``repro.cluster`` router on one shared
clock and measure the two serving-layer questions the paper leaves open:

- **Scale-out**: aggregate closed-loop throughput versus shard count for
  MioDB and LevelDB.  Foreground requests serialize on the shared clock
  while every shard's background work overlaps, so throughput grows with
  shard count only while per-shard work gets cheaper -- LevelDB (whose
  stalls shrink dramatically with per-shard load) gains the most, and
  both curves flatten toward the shared-clock serial floor.
- **Skew**: response-time tails under Zipfian load on a deliberately
  lumpy hash ring (few virtual nodes), with and without hot-shard
  rebalancing.  Bounded admission queues concentrate defer penalties on
  the hot shard; moving its busiest arcs to the coldest shard evens the
  load and visibly cuts the tail at moderate utilisation.
"""

import math

from conftest import run_once

from repro.bench import format_table
from repro.bench.config import BenchScale
from repro.cluster import (
    AdmissionControl,
    ClientSpec,
    Cluster,
    ShardRouter,
    maybe_rebalance,
    run_cluster,
)
from repro.kvstore.values import SizedValue
from repro.workloads.keys import key_for

KB = 1 << 10
CLUSTER_SCALE = BenchScale(
    memtable_bytes=32 * KB, dataset_bytes=4 << 20, value_size=1024
)
KEY_SPACE = 4096
N_CLIENTS = 4


def build_router(store_name, n_shards, vnodes=32, key_space=KEY_SPACE):
    cluster = Cluster(store_name, n_shards=n_shards, scale=CLUSTER_SCALE)
    router = ShardRouter(cluster, vnodes_per_shard=vnodes)
    for i in range(key_space):
        router.put(key_for(i), SizedValue(("seed", i), CLUSTER_SCALE.value_size))
    router.quiesce()
    router.reset_window()
    return router


def client_specs(n_ops, rate, theta=None, read_fraction=0.5, seed0=10,
                 key_space=KEY_SPACE):
    return [
        ClientSpec(
            n_ops=n_ops,
            rate_per_s=rate,
            key_space=key_space,
            read_fraction=read_fraction,
            theta=theta,
            value_size=CLUSTER_SCALE.value_size,
            seed=seed0 + i,
        )
        for i in range(N_CLIENTS)
    ]


# ---------------------------------------------------- throughput vs shards


SHARD_COUNTS = (1, 2, 4, 8)
SCALEOUT_STORES = ("miodb", "leveldb")
#: The scale-out curve uses a 6x larger working set than the skew
#: benchmark (affordable since the driver's queue-drain batching and the
#: stores' multi_* paths cut the wall-clock per simulated op --
#: docs/performance.md).  The deeper per-shard structures at low shard
#: counts push the 4->8 step ratio up for both stores: halving a big
#: shard's dataset still buys real work, where the old 4096-key set had
#: already flattened onto the shared-clock serial floor.
SCALEOUT_KEY_SPACE = 24576
SCALEOUT_OPS = 2000


def run_scaleout():
    rows = []
    kiops = {}
    for store in SCALEOUT_STORES:
        base = None
        for shards in SHARD_COUNTS:
            router = build_router(
                store, shards, key_space=SCALEOUT_KEY_SPACE
            )
            result = run_cluster(
                router,
                client_specs(
                    SCALEOUT_OPS, math.inf, key_space=SCALEOUT_KEY_SPACE
                ),
            )
            kiops[(store, shards)] = result.throughput_kiops
            if base is None:
                base = result.throughput_kiops
            rows.append(
                [
                    store,
                    shards,
                    result.throughput_kiops,
                    result.throughput_kiops / base,
                    result.response.p50 * 1e6,
                    result.response.p99 * 1e6,
                ]
            )
    return rows, kiops


def test_cluster_scaleout(benchmark, emit):
    rows, kiops = run_once(benchmark, run_scaleout)
    emit(
        "cluster_scaleout",
        format_table(
            ["store", "shards", "KIOPS", "speedup", "p50_us", "p99_us"], rows
        ),
    )
    for store in SCALEOUT_STORES:
        # throughput grows with shard count...
        for lo, hi in zip(SHARD_COUNTS, SHARD_COUNTS[1:]):
            assert kiops[(store, hi)] > kiops[(store, lo)], (store, hi)
        # MioDB beats LevelDB at every shard count
    for shards in SHARD_COUNTS:
        assert kiops[("miodb", shards)] > kiops[("leveldb", shards)]
    # ...but saturates toward the shared-clock serial floor: LevelDB's
    # 4->8 gain is a fraction of its 1->2 gain
    gain_12 = kiops[("leveldb", 2)] / kiops[("leveldb", 1)]
    gain_48 = kiops[("leveldb", 8)] / kiops[("leveldb", 4)]
    assert gain_48 < 1.6 < gain_12
    # The enlarged working set keeps the 4->8 step meaningful for both
    # stores (the old 4096-key run measured 1.042 / 1.117).
    assert gain_48 > 1.3
    assert kiops[("miodb", 8)] / kiops[("miodb", 4)] > 1.15


# --------------------------------------------------------- p99 vs skew


THETAS = (0.2, 0.6, 0.99)
SKEW_STORES = ("miodb", "leveldb")
SKEW_UTILISATION = 0.85  # offered rate as a fraction of measured capacity
SKEW_ADMISSION = dict(max_queue_depth=4, policy="defer", max_retries=6)


def run_skew_point(store, theta, rebalance):
    """One (store, theta) measurement; returns the fresh-phase result.

    Phase A drives a short skewed burst to populate the router's traffic
    window, optionally rebalances on it, then phase B measures response
    times with the migration cost settled -- the comparison isolates the
    ownership map's effect from the one-off cost of moving keys.
    """
    router = build_router(store, 4, vnodes=4)  # lumpy ring: a hot shard
    # capacity probe: short closed-loop burst at this skew
    probe = run_cluster(
        router, client_specs(300, math.inf, theta=theta, read_fraction=1.0)
    )
    rate = probe.throughput_kiops * 1e3 * SKEW_UTILISATION / N_CLIENTS
    router.quiesce()
    router.reset_window()
    admission = AdmissionControl(**SKEW_ADMISSION)
    run_cluster(
        router,
        client_specs(400, rate, theta=theta, read_fraction=1.0, seed0=50),
        admission=admission,
    )
    moved = maybe_rebalance(router, factor=1.2) if rebalance else None
    router.quiesce()
    router.reset_window()
    result = run_cluster(
        router,
        client_specs(1500, rate, theta=theta, read_fraction=1.0),
        admission=admission,
    )
    return result, moved


def run_skew():
    rows = []
    stats = {}
    for store in SKEW_STORES:
        for theta in THETAS:
            for rebalance in (False, True):
                result, moved = run_skew_point(store, theta, rebalance)
                hot_share = max(d["ops"] for d in result.per_shard) / max(
                    1, result.completed
                )
                hot_p99 = max(d["p99_us"] for d in result.per_shard)
                stats[(store, theta, rebalance)] = {
                    "p99_us": result.response.p99 * 1e6,
                    "hot_share": hot_share,
                    "hot_p99_us": hot_p99,
                    "moved": moved is not None,
                }
                rows.append(
                    [
                        store,
                        theta,
                        "yes" if rebalance else "no",
                        hot_share,
                        result.response.p99 * 1e6,
                        hot_p99,
                        result.dropped,
                    ]
                )
    return rows, stats


def test_cluster_skew(benchmark, emit):
    rows, stats = run_once(benchmark, run_skew)
    emit(
        "cluster_skew",
        format_table(
            ["store", "theta", "rebalanced", "hot_share", "p99_us",
             "hot_shard_p99_us", "drops"],
            rows,
        ),
    )
    for store in SKEW_STORES:
        base = stats[(store, 0.6, False)]
        moved = stats[(store, 0.6, True)]
        # the lumpy ring concentrates load well past the fair share, and
        # the hot shard's tail is the worst in the cluster
        assert base["hot_share"] > 0.3
        assert base["hot_p99_us"] >= base["p99_us"] * 0.95
        # rebalancing moved ownership and measurably evened the load ...
        assert moved["moved"]
        assert moved["hot_share"] < base["hot_share"] - 0.05
        # ... and cut the cluster tail
        assert moved["p99_us"] < base["p99_us"]
