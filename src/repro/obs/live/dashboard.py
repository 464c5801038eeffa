"""Live ASCII cluster dashboard, refreshed on simulated-time ticks.

``repro cluster --live`` renders one frame every ``refresh_s`` of
*simulated* time: a per-shard table (throughput, tail latency, queue
depth, write amplification, sampling ratio, flight dumps) plus a
sparkline of each shard's recent window p99.  Frames are plain text
built from deterministic window rows, so a seeded run always renders
the same frames -- which is also what makes the dashboard testable.
"""

from typing import List, Optional, Sequence

#: Sparkline ramp, dimmest to brightest (shared ASCII-art convention).
SPARK_CHARS = " .:-=+*#"
#: Windows one sparkline shows.
SPARK_WIDTH = 24


def sparkline(values: Sequence[float]) -> str:
    """Last :data:`SPARK_WIDTH` values scaled onto :data:`SPARK_CHARS`."""
    tail = list(values)[-SPARK_WIDTH:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return SPARK_CHARS[0] * len(tail)
    ramp = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(ramp, int(v / top * ramp + 0.5))] for v in tail
    )


def render_frame(
    recorders,
    labels: Sequence[str],
    now: float = 0.0,
    groups: Optional[Sequence[object]] = None,
) -> str:
    """One dashboard frame over a list of live recorders.

    ``groups`` is an optional per-shard list of
    :class:`~repro.replication.group.ReplicaGroup` objects; with it the
    table gains a ``role`` column (the serving replica, e.g. ``r1:leader``, or
    ``electing`` during failover) and a ``lag`` column (worst live
    follower replication lag, in records).  Without groups the frame is
    byte-identical to the unreplicated dashboard.
    """
    # Imported here, not at module scope: the bench layer builds stores,
    # which import the obs event vocabulary -- a module-scope import
    # would make ``import repro.obs`` circular.
    from repro.bench.report import format_table

    rows = []
    spark_lines = []
    for index, (label, rec) in enumerate(zip(labels, recorders)):
        meta = rec.sampling_meta()
        window = rec.window
        row = window.last_row()
        retained = meta["ops_retained"]
        seen = meta["ops_seen"]
        cells = [
            label,
            f"{row['kiops']:.1f}" if row else "-",
            f"{row['p50_us']:.1f}" if row else "-",
            f"{row['p99_us']:.1f}" if row else "-",
            row["queue_depth"] if row else 0,
            f"{row['wa']:.2f}" if row else "-",
            f"{retained}/{seen}",
            len(rec.flight.dumps),
        ]
        if groups is not None:
            group = groups[index]
            role = (
                "electing" if group.leader_idx is None
                else f"r{group.leader_idx}:leader"
            )
            cells.extend([role, group.lag()])
        rows.append(cells)
        series = [r["p99_us"] for r in window.rows]
        spark_lines.append(
            f"  shard {label} p99 [{sparkline(series):<{SPARK_WIDTH}}]"
        )
    headers = ["shard", "kiops", "p50_us", "p99_us", "qdepth", "wa",
               "sampled", "dumps"]
    if groups is not None:
        headers.extend(["role", "lag"])
    table = format_table(headers, rows)
    header = f"== live telemetry @ t={now * 1e3:.3f}ms =="
    return "\n".join([header, table, *spark_lines]) + "\n"


class LiveDashboard:
    """Renders frames at a fixed simulated-time cadence.

    The cluster driver calls :meth:`maybe_refresh` once per completed
    request (one float compare when it is not yet due).  Frames go to
    ``sink`` (a callable, e.g. ``print``) and are also kept in
    :attr:`frames` so tests and the CLI can inspect the sequence.
    """

    def __init__(
        self,
        recorders,
        labels: Optional[Sequence[str]] = None,
        refresh_s: float = 4e-3,
        sink=None,
        groups: Optional[Sequence[object]] = None,
    ) -> None:
        if not refresh_s > 0:  # NaN included
            raise ValueError(f"refresh_s must be positive, got {refresh_s}")
        self.groups = list(groups) if groups is not None else None
        self.recorders = list(recorders)
        self.labels = (
            list(labels) if labels is not None
            else [str(i) for i in range(len(self.recorders))]
        )
        self.refresh_s = refresh_s
        self.sink = sink
        self.frames: List[str] = []
        self.next_refresh = refresh_s

    def maybe_refresh(self, now: float) -> bool:
        """Render a frame if a refresh tick has passed; True if rendered."""
        if now < self.next_refresh:
            return False
        while self.next_refresh <= now:
            self.next_refresh += self.refresh_s
        self._render(now)
        return True

    def force_refresh(self, now: float) -> str:
        """Render a final frame regardless of cadence (end of run)."""
        return self._render(now)

    def _render(self, now: float) -> str:
        frame = render_frame(
            self.recorders, self.labels, now=now, groups=self.groups
        )
        self.frames.append(frame)
        if self.sink is not None:
            self.sink(frame)
        return frame
