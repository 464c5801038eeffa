"""Sharded serving layer: routing, backpressure, rebalance, scale-out.

The paper evaluates one store on one hybrid-memory machine;
``repro.cluster`` is the layer above it that a production deployment
needs -- N full store instances (each on its own simulated machine)
behind a router, all coordinated on one shared
:class:`~repro.sim.clock.SimClock`:

- :class:`Cluster` builds the shards; :class:`ShardRouter` exposes the
  single-store ``KVStore`` API over them, placing keys on a
  consistent-hash ring with virtual nodes (:class:`HashRingPlacement`),
  and scatter-gathers scans.
- :func:`run_cluster` drives multi-client open-loop load (per-client
  Poisson arrivals, ``math.inf`` for closed-loop) through bounded
  per-shard admission queues; shed load is tagged with the closed
  :data:`DROP_CAUSES` vocabulary.
- :func:`detect_hot_shard` / :func:`rebalance_hot_shard` move
  hash-ring ownership of hot keyranges and replay the moved keys
  through the simulated devices, so migration is charged to the cost
  model.
- :func:`cluster_metrics_json` and :func:`cluster_trace_json` export
  deterministic cluster-level metrics and per-shard Perfetto streams.

Everything is seeded and runs on simulated time: the same inputs
always produce byte-identical artifacts.  See docs/cluster.md.
"""

from repro.cluster.driver import (
    ADMISSION_POLICIES,
    DROP_CAUSES,
    DROP_NO_LEADER,
    DROP_QUEUE_FULL,
    DROP_RETRY_EXHAUSTED,
    AdmissionControl,
    ClientSpec,
    ClusterRunResult,
    run_cluster,
)
from repro.cluster.metrics import (
    cluster_metrics_json,
    cluster_openmetrics_text,
    cluster_trace_json,
)
from repro.cluster.placement import HashRingPlacement
from repro.cluster.rebalance import (
    HotShardReport,
    RebalanceResult,
    detect_hot_shard,
    maybe_rebalance,
    rebalance_hot_shard,
)
from repro.cluster.router import Cluster, Shard, ShardRouter

__all__ = [
    "Cluster",
    "Shard",
    "ShardRouter",
    "HashRingPlacement",
    "ClientSpec",
    "AdmissionControl",
    "ClusterRunResult",
    "run_cluster",
    "ADMISSION_POLICIES",
    "DROP_CAUSES",
    "DROP_NO_LEADER",
    "DROP_QUEUE_FULL",
    "DROP_RETRY_EXHAUSTED",
    "HotShardReport",
    "RebalanceResult",
    "detect_hot_shard",
    "rebalance_hot_shard",
    "maybe_rebalance",
    "cluster_metrics_json",
    "cluster_openmetrics_text",
    "cluster_trace_json",
]
