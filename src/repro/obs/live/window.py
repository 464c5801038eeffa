"""Windowed aggregation of live telemetry on the simulated clock.

The live recorder cannot keep per-op events, so continuous signals come
from fixed-width windows instead: every ``WINDOW_S`` of simulated time
it closes a row with the window's op count, throughput, p50/p99, the
executor queue depth, and the system's write amplification.  Rows are
pure functions of the simulated run, so two identical runs produce
identical series -- the property the OpenMetrics export and the live
dashboard inherit.

The recorder appends each foreground op span's ``dur`` to the open
window; closing it sorts that list once for the nearest-rank p50/p99
(:func:`repro.sim.latency.percentile`) and counts the ops over the SLO
threshold in the same list.  A tick is O(window ops), not O(history),
and the window reads nothing but the event spine -- so a recorder that
moves to another machine (a failover) keeps its open window.

Windows with no completed ops are skipped rather than emitted as zero
rows: ticks are driven by op completions, so an idle stretch simply
produces no row until the next op lands (the series is sparse in
simulated time).
"""

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.sim.latency import percentile

#: Width of one aggregation window, in simulated seconds.
WINDOW_S = 1e-3
#: Rows kept per aggregator; the oldest leaves (and is counted) past it.
MAX_ROWS = 4096


class WindowAggregator:
    """Rolls one recorder's op latencies into fixed simulated-time windows.

    ``slo_threshold_s`` (per-op latency objective, or None) is what a
    closed window's bad-op count is measured against.
    """

    def __init__(self, slo_threshold_s: Optional[float]) -> None:
        self.rows: List[dict] = []
        self.dropped_rows = 0
        # First tick closes the window containing the first op; align
        # edges to multiples of WINDOW_S from t=0 so identical runs tick
        # at identical instants regardless of when attach happened.
        self.next_edge = WINDOW_S
        #: Latencies of the ops completed in the open window, appended
        #: by the recorder from each op span.
        self.latencies: List[float] = []
        self._threshold = slo_threshold_s

    def maybe_tick(self, now: float, system) -> Optional[Tuple[float, int, int]]:
        """Close every window edge at or before ``now``.

        Called by the recorder when an op ends at or past
        :attr:`next_edge`.  All edges between the previous tick and
        ``now`` share one row: the ops since the last tick all belong to
        the window containing them, and empty intermediate windows
        produce no rows.  ``system`` supplies the row's queue depth and
        write amplification.  Returns what :meth:`close` returns, or
        None when no edge was crossed.
        """
        if now < self.next_edge:
            return None
        # The row's edge is the last crossed boundary: ops since the
        # previous tick completed at or before it.
        edge = self.next_edge
        while edge + WINDOW_S <= now:
            edge += WINDOW_S
        self.next_edge = edge + WINDOW_S
        return self.close(edge, system)

    def close(self, t_s: float, system) -> Optional[Tuple[float, int, int]]:
        """Close the open window as a row stamped ``t_s``.

        :meth:`maybe_tick` closes at an edge; the recorder's detach
        closes the partial window at the detach instant.  Returns the
        window's ``(t_s, ops, bad)``, or None (and no row) when it held
        no ops.
        """
        lats = self.latencies
        if not lats:
            return None
        self.latencies = []
        lats.sort()
        ops = len(lats)
        row = {
            "t_s": t_s,
            "ops": ops,
            "kiops": ops / WINDOW_S / 1e3,
            "p50_us": percentile(lats, 50) * 1e6,
            "p99_us": percentile(lats, 99) * 1e6,
            "queue_depth": system.executor.pending,
            "wa": system.write_amplification(),
        }
        if len(self.rows) >= MAX_ROWS:
            self.rows.pop(0)
            self.dropped_rows += 1
        self.rows.append(row)
        threshold = self._threshold
        bad = 0 if threshold is None else ops - bisect_right(lats, threshold)
        return t_s, ops, bad

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
