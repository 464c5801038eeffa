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

from typing import List, Optional, Sequence

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


def _window_gauge(key: str, divisor: Optional[float], empty):
    """The last closed window's ``key`` (``empty`` before any closed)."""
    def samples(rec, group):
        row = rec.window.last_row()
        value = row[key] if row else empty
        return [((), value / divisor if divisor else value)]
    return samples


def _by(label: str, counts: dict, vocabulary) -> list:
    """One sample per ``vocabulary`` entry present in ``counts``."""
    return [(((label, v),), counts[v]) for v in vocabulary if v in counts]


def _drops(rec, group) -> list:
    counts: dict = {}
    for event in rec.index().of(CAT_QUEUE):
        if event.name == "drop":
            cause = (event.args or {}).get("cause", "unknown")
            counts[cause] = counts.get(cause, 0) + 1
    return _by("cause", counts, DROP_CAUSES)


def _repl_lag(rec, group) -> list:
    if group is None:
        return []
    head = len(group.log)
    return [
        ((("replica", str(member.replica_id)),), head - member.applied_lsn)
        for member in group.alive_followers()
    ]


#: The exposition, in family order: (family, type, help, samples), where
#: ``samples(recorder, group)`` lists one shard's ``(labels, value)``
#: pairs beside its ``shard`` label.
_FAMILIES = (
    ("repro_ops_seen", "counter", "Foreground ops observed.",
     lambda rec, group: [((), rec.sampling_meta()["ops_seen"])]),
    ("repro_ops_retained", "counter",
     "Foreground op spans retained, by sampling decision.",
     lambda rec, group: [
         ((("decision", d),), rec.sampling_meta()[f"retained_{d}"])
         for d in ("head", "tail", "stall")
     ]),
    ("repro_sample_scale", "gauge",
     "Rescaling factor ops_seen/ops_retained (NaN-free: 0 when empty).",
     lambda rec, group: [((), rec.sampling_meta()["scale"] or 0.0)]),
    ("repro_queue_seen", "counter", "Router queue spans observed.",
     lambda rec, group: [((), rec.queue_seen)]),
    ("repro_queue_retained", "counter", "Router queue spans retained.",
     lambda rec, group: [((), rec.queue_kept)]),
    ("repro_window_kiops", "gauge",
     "Throughput of the last closed aggregation window (KIOPS).",
     _window_gauge("kiops", None, 0.0)),
    ("repro_window_p50_seconds", "gauge",
     "p50 op latency of the last closed window.", _window_gauge("p50_us", 1e6, 0.0)),
    ("repro_window_p99_seconds", "gauge",
     "p99 op latency of the last closed window.", _window_gauge("p99_us", 1e6, 0.0)),
    ("repro_queue_depth", "gauge",
     "Background jobs pending on the shard executor.",
     _window_gauge("queue_depth", None, 0)),
    ("repro_write_amplification", "gauge",
     "Persistent bytes written over logical user bytes.",
     _window_gauge("wa", None, 0.0)),
    ("repro_windows", "counter", "Closed aggregation windows.",
     lambda rec, group: [((), rec.window.closed)]),
    ("repro_stall_seconds", "counter",
     "Simulated seconds stalled, by cause (stalls are never sampled out).",
     lambda rec, group: _by(
         "cause", rec.stall_seconds_by_cause(), sorted(STALL_CAUSES)
     )),
    ("repro_drops", "counter",
     "Admission-queue drops, by cause (drops are never sampled out).", _drops),
    ("repro_repl_lag", "gauge",
     "Acked log records not yet applied, per live follower.", _repl_lag),
    ("repro_flight_dumps", "counter",
     "Flight-recorder triggers, by trigger (including past max_dumps).",
     lambda rec, group: [
         ((("trigger", trigger),), count)
         for trigger, count in sorted(rec.flight.trigger_counts.items()) if count
     ]),
)


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
    shards = list(zip(labels, recorders, groups or [None] * len(recorders)))
    lines: List[str] = []
    for family, kind, help_, samples in _FAMILIES:
        if samples is _repl_lag and groups is None:
            continue
        lines.append(f"# TYPE {family} {kind}")
        lines.append(f"# HELP {family} {help_}")
        name = f"{family}_total" if kind == "counter" else family
        for label, rec, group in shards:
            for extra, value in samples(rec, group):
                body = ",".join(f'{k}="{v}"' for k, v in (("shard", label),) + extra)
                lines.append(f"{name}{{{body}}} {_fmt(value)}")
    return "\n".join(lines + ["# EOF"]) + "\n"
