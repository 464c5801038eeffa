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
    from repro.obs import chrome_trace_json
    from repro.obs.export import write_artifact

    store, system = make_store("miodb")
    recorder = system.attach_tracing()
    ...                       # run a workload
    recorder.detach()
    write_artifact("trace.json", chrome_trace_json(recorder))
"""

from repro.obs.events import (
    CAT_COMPACT,
    CAT_FLUSH,
    CAT_OP,
    CAT_QUEUE,
    CAT_STALL,
    CAT_TRANSFER,
    DROP_CAUSES,
    STALL_CAUSES,
)
from repro.obs.export import (
    bandwidth_csv,
    chrome_trace_json,
    gantt,
    metrics_json,
    queue_depth_csv,
)
from repro.obs.live import openmetrics_text
from repro.obs.recorder import TraceRecorder
from repro.obs.runner import run_traced

__all__ = [
    "TraceRecorder",
    "CAT_OP",
    "CAT_STALL",
    "CAT_FLUSH",
    "CAT_COMPACT",
    "CAT_TRANSFER",
    "CAT_QUEUE",
    "DROP_CAUSES",
    "STALL_CAUSES",
    "chrome_trace_json",
    "metrics_json",
    "bandwidth_csv",
    "queue_depth_csv",
    "gantt",
    "run_traced",
    "openmetrics_text",
]
