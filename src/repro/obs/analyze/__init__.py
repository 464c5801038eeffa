"""Deterministic trace analysis: attribution, critical paths, SLOs.

Everything in this package consumes a :class:`~repro.obs.recorder.TraceRecorder`
after a run and computes pure functions of its events, classified once
by :meth:`~repro.obs.recorder.TraceRecorder.index`, so every report is
byte-identical across same-seed runs.  The pieces:

- :mod:`~repro.obs.analyze.attribution` -- per-op latency decomposition
  (queue wait, stalls by cause, device time by device, residual other)
  with an exact conservation invariant;
- :mod:`~repro.obs.analyze.critical_path` -- the flush/compaction job
  chain behind each foreground stall;
- :mod:`~repro.obs.analyze.profile` -- top-down time profile per store,
  worker, and level, rendered as JSON or ASCII;
- :mod:`~repro.obs.analyze.timeline` -- per-level bytes-moved and
  write-amplification accounting cross-checkable against fig 11;
- :mod:`~repro.obs.analyze.replication` -- replication-phase totals,
  per-follower lag timelines, and quorum-straggler counts from the
  causal ``repl.*`` events;
- :mod:`~repro.obs.analyze.diff` -- differential analysis between two
  analysis documents, behind ``repro diff``;
- :mod:`~repro.obs.analyze.slo` -- rolling-window SLO monitors with
  multi-window burn-rate alerting on the simulated clock;
- :mod:`~repro.obs.analyze.report` -- the assembled ``repro analyze``
  and ``repro slo`` documents and their text renderings.
"""

from repro.obs.analyze.attribution import attribute_ops, summarize
from repro.obs.analyze.critical_path import (
    critical_paths,
    failover_timelines,
    stall_blame,
)
from repro.obs.analyze.diff import diff_analysis, render_diff
from repro.obs.analyze.profile import time_profile
from repro.obs.analyze.replication import (
    follower_lag_timeline,
    replication_summary,
)
from repro.obs.analyze.report import (
    analyze_cluster,
    analyze_run,
    conservation_check,
    render_analysis,
    render_cluster_analysis,
    render_slo,
    slo_document,
)
from repro.obs.analyze.slo import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    rolling_series,
)
from repro.obs.analyze.timeline import per_level_bytes, persistent_write_bytes
# The analysis document's writer, under the name benchmark drivers import.
from repro.obs.export import document_json as analysis_json

__all__ = [
    "attribute_ops",
    "summarize",
    "critical_paths",
    "stall_blame",
    "failover_timelines",
    "follower_lag_timeline",
    "replication_summary",
    "diff_analysis",
    "render_diff",
    "time_profile",
    "persistent_write_bytes",
    "per_level_bytes",
    "SloObjective",
    "BurnRateRule",
    "SloMonitor",
    "rolling_series",
    "analyze_run",
    "analyze_cluster",
    "conservation_check",
    "analysis_json",
    "render_analysis",
    "render_cluster_analysis",
    "slo_document",
    "render_slo",
]
