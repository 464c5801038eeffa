"""OpenMetrics text export for the live telemetry plane.

One exposition document per export: fixed family order, ``# TYPE`` and
``# HELP`` metadata per family, one sample per (shard, label set), and
the mandatory ``# EOF`` terminator.  Everything rendered comes from
simulated state, so the text is byte-identical across identical runs --
the sampling-determinism tests pin it to that.

Counters follow the OpenMetrics convention that the sample name is the
family name plus ``_total``; gauges sample under the bare family name.
Gauge families report the *last closed window* (the "current" value on
the simulated clock).
"""

from typing import List, Optional, Sequence, Tuple

from repro.obs.events import CAT_QUEUE, DROP_CAUSES, STALL_CAUSES


def _fmt(value) -> str:
    """Deterministic sample-value rendering (ints bare, floats repr)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    return repr(value)


#: Gauge families read off each shard's last closed window:
#: (family, help, row key, divisor or None, value before any window closed).
_WINDOW_GAUGES = (
    ("repro_window_kiops",
     "Throughput of the last closed aggregation window (KIOPS).",
     "kiops", None, 0.0),
    ("repro_window_p50_seconds",
     "p50 op latency of the last closed window.", "p50_us", 1e6, 0.0),
    ("repro_window_p99_seconds",
     "p99 op latency of the last closed window.", "p99_us", 1e6, 0.0),
    ("repro_queue_depth",
     "Background jobs pending on the shard executor.", "queue_depth", None, 0),
    ("repro_write_amplification",
     "Persistent bytes written over logical user bytes.", "wa", None, 0.0),
)


class _Doc:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def family(self, name: str, kind: str, help_: str) -> None:
        self.lines.append(f"# TYPE {name} {kind}")
        self.lines.append(f"# HELP {name} {help_}")

    def sample(self, name: str, labels: Sequence[Tuple[str, str]], value) -> None:
        if labels:
            body = ",".join(f'{k}="{v}"' for k, v in labels)
            self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines + ["# EOF"]) + "\n"


def openmetrics_text(
    recorders,
    labels: Optional[Sequence[str]] = None,
    groups: Optional[Sequence] = None,
) -> str:
    """Render one exposition document over one or more live recorders.

    ``recorders`` is a single :class:`~repro.obs.live.recorder.LiveRecorder`
    or a sequence of them (one per shard); ``labels`` are the matching
    ``shard`` label values (defaults to ``"0"``, ``"1"``, ...).

    ``groups`` optionally carries one replica group (or ``None``) per
    shard; when given, the document gains a ``repro_repl_lag`` gauge
    family with one sample per live follower -- acked records the
    follower has not yet applied.  Unreplicated exports omit the family
    entirely, so their pinned documents are unchanged.
    """
    if not isinstance(recorders, (list, tuple)):
        recorders = [recorders]
    if labels is None:
        labels = [str(i) for i in range(len(recorders))]
    if len(labels) != len(recorders):
        raise ValueError(
            f"labels/recorders length mismatch: {len(labels)} vs "
            f"{len(recorders)}"
        )
    if groups is not None and len(groups) != len(recorders):
        raise ValueError(
            f"groups/recorders length mismatch: {len(groups)} vs "
            f"{len(recorders)}"
        )
    shards = list(zip(labels, recorders))
    doc = _Doc()

    doc.family("repro_ops_seen", "counter", "Foreground ops observed.")
    for label, rec in shards:
        doc.sample("repro_ops_seen_total", [("shard", label)],
                   rec.sampling_meta()["ops_seen"])

    doc.family(
        "repro_ops_retained", "counter",
        "Foreground op spans retained, by sampling decision.",
    )
    for label, rec in shards:
        meta = rec.sampling_meta()
        for decision in ("head", "tail", "stall"):
            doc.sample(
                "repro_ops_retained_total",
                [("shard", label), ("decision", decision)],
                meta[f"retained_{decision}"],
            )

    doc.family(
        "repro_sample_scale", "gauge",
        "Rescaling factor ops_seen/ops_retained (NaN-free: 0 when empty).",
    )
    for label, rec in shards:
        scale = rec.sampling_meta()["scale"]
        doc.sample("repro_sample_scale", [("shard", label)],
                   0.0 if scale is None else scale)

    doc.family(
        "repro_queue_seen", "counter", "Router queue spans observed.",
    )
    for label, rec in shards:
        doc.sample("repro_queue_seen_total", [("shard", label)],
                   rec.queue_seen)

    doc.family(
        "repro_queue_retained", "counter", "Router queue spans retained.",
    )
    for label, rec in shards:
        doc.sample("repro_queue_retained_total", [("shard", label)],
                   rec.queue_kept)

    last_rows = [
        rec.window.last_row() if rec.window is not None else None
        for __, rec in shards
    ]
    for family, help_, key, divisor, empty in _WINDOW_GAUGES:
        doc.family(family, "gauge", help_)
        for (label, __), row in zip(shards, last_rows):
            value = row[key] if row else empty
            doc.sample(family, [("shard", label)],
                       value / divisor if divisor else value)

    doc.family(
        "repro_windows", "counter", "Closed aggregation windows.",
    )
    for label, rec in shards:
        doc.sample("repro_windows_total", [("shard", label)],
                   len(rec.window.rows) if rec.window is not None else 0)

    doc.family(
        "repro_stall_seconds", "counter",
        "Simulated seconds stalled, by cause (stalls are never sampled out).",
    )
    for label, rec in shards:
        totals = rec.stall_seconds_by_cause()
        for cause in sorted(STALL_CAUSES):
            if cause in totals:
                doc.sample(
                    "repro_stall_seconds_total",
                    [("shard", label), ("cause", cause)],
                    totals[cause],
                )

    doc.family(
        "repro_drops", "counter",
        "Admission-queue drops, by cause (drops are never sampled out).",
    )
    for label, rec in shards:
        counts = {}
        for event in rec.events:
            if event.cat == CAT_QUEUE and event.name == "drop":
                cause = (event.args or {}).get("cause", "unknown")
                counts[cause] = counts.get(cause, 0) + 1
        for cause in DROP_CAUSES:
            if cause in counts:
                doc.sample(
                    "repro_drops_total",
                    [("shard", label), ("cause", cause)],
                    counts[cause],
                )

    if groups is not None:
        doc.family(
            "repro_repl_lag", "gauge",
            "Acked log records not yet applied, per live follower.",
        )
        for label, group in zip(labels, groups):
            if group is None:
                continue
            head = len(group.log)
            for member in group.alive_followers():
                doc.sample(
                    "repro_repl_lag",
                    [("shard", label), ("replica", str(member.replica_id))],
                    head - member.applied_lsn,
                )

    doc.family(
        "repro_flight_dumps", "counter",
        "Flight-recorder triggers, by trigger (including past max_dumps).",
    )
    for label, rec in shards:
        for trigger, count in sorted(rec.flight.trigger_counts.items()):
            if count:
                doc.sample(
                    "repro_flight_dumps_total",
                    [("shard", label), ("trigger", trigger)],
                    count,
                )

    return doc.text()


def write_openmetrics(path: str, recorders, labels=None) -> str:
    """Write the exposition document to ``path``; returns the text."""
    from repro.obs.export import write_artifact

    text = openmetrics_text(recorders, labels)
    write_artifact(path, text)
    return text
