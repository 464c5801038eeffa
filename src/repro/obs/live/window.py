"""Windowed aggregation of live telemetry on the simulated clock.

The live recorder cannot keep per-op events, so continuous signals come
from fixed-width windows instead: every ``WINDOW_S`` of simulated time
it closes a row with the window's op count, throughput, p50/p99, the
executor queue depth, and the system's write amplification.  Rows are
pure functions of the simulated run, so two identical runs produce
identical series -- the property the OpenMetrics export and the live
dashboard inherit.

Percentiles come from :meth:`LatencyRecorder.window_snapshot` with
``reset=True``: the store records every op's latency anyway (sampling
never changes simulation behaviour), and the cursor-based snapshot makes
each tick O(window ops), not O(history).

Windows with no completed ops are skipped rather than emitted as zero
rows: ticks are driven by op completions, so an idle stretch simply
produces no row until the next op lands (the series is sparse in
simulated time).
"""

from typing import List, Optional

#: Width of one aggregation window, in simulated seconds.
WINDOW_S = 1e-3
#: Rows kept per aggregator; the oldest leaves (and is counted) past it.
MAX_ROWS = 4096


class WindowAggregator:
    """Rolls one system's telemetry into fixed simulated-time windows."""

    def __init__(self, system) -> None:
        self.system = system
        self.rows: List[dict] = []
        self.dropped_rows = 0
        # First tick closes the window containing the first op; align
        # edges to multiples of WINDOW_S from t=0 so identical runs tick
        # at identical instants regardless of when attach happened.
        self.next_edge = WINDOW_S
        # Ops whose latency exceeded the SLO threshold in the open
        # window (maintained by the recorder; consumed at tick time).
        self.bad_in_window = 0
        self._on_window = None

    def set_window_listener(self, listener) -> None:
        """``listener(t_s, ops, bad)`` called once per closed row."""
        self._on_window = listener

    def maybe_tick(self, now: float) -> bool:
        """Close every window edge at or before ``now``; True if any closed.

        Called by the recorder once per op (one float compare on the hot
        path) and once at finalize.  All edges between the previous tick
        and ``now`` share one snapshot: the ops since the last tick all
        belong to the window containing them, and empty intermediate
        windows produce no rows.
        """
        if now < self.next_edge:
            return False
        snap = self.system.latency.window_snapshot(reset=True)
        # The row's edge is the last crossed boundary: ops since the
        # previous tick completed at or before it.
        edge = self.next_edge
        while edge + WINDOW_S <= now:
            edge += WINDOW_S
        self.next_edge = edge + WINDOW_S
        bad = self.bad_in_window
        self.bad_in_window = 0
        if snap.count == 0:
            return False
        self._append_row(edge, snap, bad)
        return True

    def finalize(self, now: float) -> None:
        """Flush the open partial window at detach time."""
        snap = self.system.latency.window_snapshot(reset=True)
        bad = self.bad_in_window
        self.bad_in_window = 0
        if snap.count == 0:
            return
        self._append_row(now, snap, bad)

    def _append_row(self, t_s: float, snap, bad: int) -> None:
        row = {
            "t_s": t_s,
            "ops": snap.count,
            "kiops": snap.count / WINDOW_S / 1e3,
            "p50_us": snap.p50 * 1e6,
            "p99_us": snap.p99 * 1e6,
            "queue_depth": self.system.executor.pending,
            "wa": self.system.write_amplification(),
        }
        if len(self.rows) >= MAX_ROWS:
            self.rows.pop(0)
            self.dropped_rows += 1
        self.rows.append(row)
        if self._on_window is not None:
            self._on_window(t_s, snap.count, bad)

    @property
    def closed(self) -> int:
        """Windows closed so far, counting the rows dropped past the cap."""
        return len(self.rows) + self.dropped_rows

    def last_row(self) -> Optional[dict]:
        return self.rows[-1] if self.rows else None

    def __repr__(self) -> str:
        return (
            f"WindowAggregator({len(self.rows)} rows, "
            f"window={WINDOW_S * 1e3:g}ms)"
        )
