"""Unified deterministic tracing & metrics for the reproduction.

The ``repro.obs`` package is the observability layer every store shares:
a :class:`TraceRecorder` collecting typed spans and instants from native
hooks (foreground ops, stalls with causes, flushes, per-level
compactions, per-device transfers), plus exporters for Perfetto/Chrome
trace JSON, hierarchical metrics snapshots, CSV time series, and ASCII
gantt charts.

Because every timestamp comes from the simulated clock, traces are
deterministic: the same seeded workload always produces byte-identical
artifacts.  See docs/observability.md for the event taxonomy and the
determinism contract.

Quickstart::

    from repro.bench import make_store
    from repro.obs import write_chrome_trace

    store, system = make_store("miodb")
    recorder = system.attach_tracing()
    ...                       # run a workload
    recorder.detach()
    write_chrome_trace(recorder, "trace.json")
"""

from repro.obs.analyze import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    analyze_cluster,
    analyze_run,
    attribute_ops,
    critical_paths,
)
from repro.obs.events import (
    CAT_COMPACT,
    CAT_FLUSH,
    CAT_JOB,
    CAT_OP,
    CAT_QUEUE,
    CAT_STALL,
    CAT_TRANSFER,
    CATEGORIES,
    DROP_CAUSES,
    DROP_QUEUE_FULL,
    DROP_RETRY_EXHAUSTED,
    STALL_BUFFER_CAP,
    STALL_CAUSES,
    STALL_L0_SLOWDOWN,
    STALL_L0_STOP,
    STALL_MEMTABLE_FULL,
    TraceEvent,
)
from repro.obs.export import (
    ascii_gantt,
    bandwidth_csv,
    chrome_trace_json,
    gantt,
    latency_histogram,
    metrics_json,
    metrics_snapshot,
    queue_depth_csv,
    to_chrome_trace,
    write_artifact,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.live import (
    FlightRecorder,
    HeadSampler,
    LiveDashboard,
    LiveRecorder,
    TailSampler,
    WindowAggregator,
    head_keep,
    openmetrics_text,
    splitmix64,
    write_openmetrics,
)
from repro.obs.recorder import TraceRecorder
from repro.obs.runner import run_traced

__all__ = [
    "TraceRecorder",
    "TraceEvent",
    "CATEGORIES",
    "CAT_OP",
    "CAT_STALL",
    "CAT_FLUSH",
    "CAT_COMPACT",
    "CAT_JOB",
    "CAT_TRANSFER",
    "CAT_QUEUE",
    "DROP_CAUSES",
    "DROP_QUEUE_FULL",
    "DROP_RETRY_EXHAUSTED",
    "STALL_CAUSES",
    "STALL_MEMTABLE_FULL",
    "STALL_L0_SLOWDOWN",
    "STALL_L0_STOP",
    "STALL_BUFFER_CAP",
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "metrics_snapshot",
    "metrics_json",
    "write_metrics",
    "write_artifact",
    "latency_histogram",
    "bandwidth_csv",
    "queue_depth_csv",
    "ascii_gantt",
    "gantt",
    "run_traced",
    "attribute_ops",
    "critical_paths",
    "analyze_run",
    "analyze_cluster",
    "SloObjective",
    "BurnRateRule",
    "SloMonitor",
    "LiveRecorder",
    "LiveDashboard",
    "FlightRecorder",
    "WindowAggregator",
    "HeadSampler",
    "TailSampler",
    "head_keep",
    "splitmix64",
    "openmetrics_text",
    "write_openmetrics",
]
