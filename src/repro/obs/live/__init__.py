"""Always-on live telemetry: sampled tracing, flight recorder, windows.

The full-fidelity :class:`~repro.obs.recorder.TraceRecorder` costs
too much to leave attached in steady state; this package is the
production posture.  :class:`LiveRecorder` replaces the recorder's sink
with a retention policy: it *samples* foreground op spans
(deterministic splitmix64 head sampling plus rolling-percentile/stall
tail sampling, with exact seen/retained bookkeeping), feeds a bounded
:class:`FlightRecorder` ring that dumps full recent windows on incident
triggers, and rolls continuous per-shard series through a
:class:`WindowAggregator` for OpenMetrics export and the live ASCII
dashboard.

Attach via :meth:`HybridMemorySystem.attach_live
<repro.mem.system.HybridMemorySystem.attach_live>` (or
``Cluster.attach_live`` for one recorder per shard).  Everything is
driven by the simulated clock and seeded hashes, so live traces,
metrics text, dashboards, and flight dumps are byte-identical across
identical runs.  See docs/observability.md ("Live telemetry & sampling").
"""

from repro.obs.live.dashboard import LiveDashboard
from repro.obs.live.flight import FlightRecorder
from repro.obs.live.openmetrics import openmetrics_text
from repro.obs.live.recorder import LiveRecorder
from repro.obs.live.sampling import HeadSampler, TailSampler, splitmix64
from repro.obs.live.window import WindowAggregator

__all__ = [
    "LiveRecorder",
    "HeadSampler",
    "TailSampler",
    "splitmix64",
    "FlightRecorder",
    "WindowAggregator",
    "openmetrics_text",
    "LiveDashboard",
]
