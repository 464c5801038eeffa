"""Cluster-level metrics and trace export.

Per-shard state is already captured natively -- every shard's
:class:`~repro.mem.system.HybridMemorySystem` has its own stats
registry, latency recorder, devices, and (optionally) trace recorder.
This module assembles them into cluster-level artifacts:

- :func:`cluster_metrics_json` -- a deterministic grouped-metrics
  document: per-shard counter families, device traffic, and latency
  summaries, plus placement state, cluster counters (routed ops, drops
  by cause, migration bytes), and -- when a driver result is supplied --
  its pooled response-time percentiles.
- :func:`cluster_trace_json` -- the shards' trace streams merged into
  one Chrome/Perfetto document, one *process* per shard (``pid`` =
  shard id + 1) with shard-id metadata, so the shared timeline reads as
  a cluster gantt.

Everything is keyed and ordered deterministically: the same seed
produces byte-identical JSON.
"""

from typing import Dict, List

from repro.obs.export import (
    document_json,
    metrics_snapshot,
    process_trace_events,
    trace_document_json,
)
from repro.obs.live.openmetrics import openmetrics_text


def cluster_metrics_json(cluster, router=None, result=None) -> str:
    """A hierarchical metrics document for one finished cluster run,
    serialized deterministically."""
    doc: Dict = {
        "schema": 1,
        "store": cluster.store_name,
        "n_shards": cluster.n_shards,
        "sim_time_s": cluster.clock.now,
        "cluster": cluster.stats.snapshot_grouped(),
        "shards": {
            str(shard.shard_id): metrics_snapshot(shard.system)
            for shard in cluster.shards
        },
    }
    if cluster.replication is not None:
        doc["replication"] = {
            str(group.group_id): group.snapshot() for group in cluster.groups
        }
    if router is not None:
        doc["placement"] = router.placement.describe()
        doc["window_shard_ops"] = list(router.shard_ops)
    if result is not None:
        doc["driver"] = {
            "offered": result.offered,
            "completed": result.completed,
            "drops": dict(sorted(result.drops.items())),
            "duration_s": result.duration_s,
            "throughput_kiops": result.throughput_kiops,
            "response_us": result.response.as_micros(),
            "per_shard": result.per_shard,
            "rebalances": [
                {
                    "from_shard": r.from_shard,
                    "to_shard": r.to_shard,
                    "moved_slots": len(r.moved_slots),
                    "moved_keys": r.moved_keys,
                    "moved_bytes": r.moved_bytes,
                    "at_time_s": r.at_time,
                }
                for r in result.rebalances
            ],
        }
    return document_json(doc)


def cluster_openmetrics_text(cluster, recorders: List[object]) -> str:
    """The shards' live telemetry as one OpenMetrics exposition document.

    ``recorders`` is the list returned by ``cluster.attach_live()``
    (shard order); the ``shard`` label carries the shard id.  Like every
    exporter here, the text is byte-identical for identical seeded runs.
    Replicated clusters additionally expose per-follower ``repro_repl_lag``
    samples; unreplicated documents are unchanged.
    """
    if len(recorders) != cluster.n_shards:
        raise ValueError(
            f"expected {cluster.n_shards} recorders, got {len(recorders)}"
        )
    labels = [str(shard.shard_id) for shard in cluster.shards]
    groups = cluster.groups if cluster.replication is not None else None
    return openmetrics_text(recorders, labels, groups=groups)


def cluster_trace_json(cluster, recorders: List[object]) -> str:
    """Shard trace streams merged into one multi-process trace document,
    serialized deterministically (sorted keys).

    ``recorders`` is the list returned by ``cluster.attach_tracing()``
    (shard order).  Each shard becomes its own trace *process*: ``pid``
    is ``shard_id + 1``, the process name carries the shard id and
    store name, and every track keeps its per-shard ``tid`` assignment.
    Event args gain a ``"shard"`` entry so filtering by shard works in
    Perfetto queries too.
    """
    if len(recorders) != cluster.n_shards:
        raise ValueError(
            f"expected {cluster.n_shards} recorders, got {len(recorders)}"
        )
    trace_events: List[dict] = []
    for shard, recorder in zip(cluster.shards, recorders):
        trace_events.extend(
            process_trace_events(
                recorder,
                f"shard{shard.shard_id}:{cluster.store_name}",
                pid=shard.shard_id + 1,
                shard=shard.shard_id,
            )
        )
    return trace_document_json(trace_events, "repro.cluster")
