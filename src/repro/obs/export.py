"""Exporters: Perfetto/Chrome trace JSON, metrics snapshots, CSV series.

All exporters are pure functions of a :class:`~repro.obs.recorder.TraceRecorder`
(or the system it observed), and all output is deterministic: keys are
sorted, track ids are assigned in first-appearance order, and every
timestamp comes from the simulated clock.  Two runs of the same seeded
workload therefore produce byte-identical artifacts -- the determinism
contract that lets tests pin trace fingerprints.
"""

import json
import pathlib
from typing import List, Optional, Sequence, Tuple

from repro.obs.events import CAT_TRANSFER
from repro.sim.latency import equal_bins

#: Microseconds per simulated second (the trace-event format's unit).
_US = 1e6
#: Rows of the ``--bandwidth-csv`` series.
_BANDWIDTH_BINS = 100
#: Cells across an ASCII gantt chart.
_GANTT_WIDTH = 72


def write_artifact(path, text: str) -> pathlib.Path:
    """Write a deterministic text artifact to ``path``.

    The one function in ``repro`` that writes a file (exporters return
    text; the CLI's ``_wrote`` door calls this): the parent directory is
    created if missing and an existing file is replaced.  Returns the
    path written.
    """
    target = pathlib.Path(path)
    if target.parent != pathlib.Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


def document_json(doc: dict) -> str:
    """``doc`` as deterministic JSON text (sorted keys, indent 2, final
    newline): every JSON file ``repro`` writes but the trace documents."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------- chrome/perfetto


def process_trace_events(
    recorder, process_name: str, pid: int = 1, shard: Optional[int] = None
) -> List[dict]:
    """One trace *process*: its metadata records, then every event.

    Spans become complete (``"ph": "X"``) events and instants become
    thread-scoped instant (``"ph": "i"``) events; each track maps to one
    ``tid`` (first-appearance order) announced by ``thread_name``
    metadata.  With ``shard`` set, the process metadata and every
    event's args carry it, so a merged multi-process document can be
    filtered by shard.
    """
    tag = {} if shard is None else {"shard": shard}
    tids = {track: tid for tid, track in enumerate(recorder.index().tracks, 1)}
    trace_events: List[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name, **tag},
        }
    ]
    for track, tid in tids.items():
        trace_events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    for event in recorder.events:
        record = {
            "name": event.name,
            "cat": event.cat,
            "pid": pid,
            "tid": tids[event.track],
            "ts": event.ts * _US,
        }
        if event.dur is not None:
            record["ph"] = "X"
            record["dur"] = event.dur * _US
        else:
            record["ph"] = "i"
            record["s"] = "t"
        args = event.args
        if tag:
            args = {**(args or {}), **tag}
        if args:
            record["args"] = args
        trace_events.append(record)
    return trace_events


def trace_document_json(trace_events: List[dict], generator: str) -> str:
    """``trace_events`` as a Chrome trace-event document (compact JSON,
    sorted keys) made by ``generator``; it loads directly in
    https://ui.perfetto.dev or ``chrome://tracing``."""
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {"generator": generator, "schema": 1},
        "traceEvents": trace_events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def chrome_trace_json(recorder, process_name: str = "repro") -> str:
    """The recorder's events as a one-process trace document
    (:func:`process_trace_events`)."""
    return trace_document_json(
        process_trace_events(recorder, process_name), "repro.obs"
    )


# -------------------------------------------------------------- metrics

#: Fixed histogram bucket boundaries in microseconds: powers of two from
#: 1 us up to ~17 s, so histograms from different runs always align.
HISTOGRAM_BUCKETS_US: Tuple[float, ...] = tuple(float(2 ** i) for i in range(25))


def latency_histogram(latencies_s: Sequence[float]) -> dict:
    """Fixed-bucket histogram of latency samples (seconds in, us buckets).

    ``counts[i]`` is the number of samples with
    ``latency <= HISTOGRAM_BUCKETS_US[i]`` (and greater than the previous
    bound); an overflow bucket catches anything beyond the last bound.
    """
    counts = [0] * (len(HISTOGRAM_BUCKETS_US) + 1)
    for latency in latencies_s:
        us = latency * _US
        for i, bound in enumerate(HISTOGRAM_BUCKETS_US):
            if us <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return {
        "bounds_us": list(HISTOGRAM_BUCKETS_US),
        "counts": counts,
        "total": len(latencies_s),
    }


def metrics_snapshot(system, recorder=None) -> dict:
    """A hierarchical metrics document for one finished run.

    Counters are grouped by key family (``stall.*``, ``flush.*``, ...),
    latencies become fixed-bucket histograms plus the usual percentile
    summary, device traffic is reported per device, and -- when a
    recorder is supplied -- stall time is broken down by cause.
    """
    doc = {
        "schema": 1,
        "sim_time_s": system.clock.now,
        "counters": system.stats.snapshot_grouped(),
        "devices": {},
        "latency": {},
    }
    for device in system.devices():
        doc["devices"][device.name] = {
            "bytes_read": device.bytes_read,
            "bytes_written": device.bytes_written,
            "read_ops": device.read_ops,
            "write_ops": device.write_ops,
            "bytes_in_use": device.bytes_in_use,
            "peak_bytes_in_use": device.peak_bytes_in_use,
        }
    for kind in system.latency.kinds():
        summary = system.latency.summary(kind)
        doc["latency"][kind] = {
            "summary_us": summary.as_micros(),
            "histogram": latency_histogram(system.latency.latencies(kind)),
        }
    if recorder is not None:
        doc["events"] = recorder.counts_by_category()
        doc["stall_by_cause_s"] = recorder.stall_seconds_by_cause()
    return doc


def metrics_json(system, recorder=None) -> str:
    """The metrics snapshot serialized deterministically."""
    return document_json(metrics_snapshot(system, recorder))


# ------------------------------------------------------------ csv series


def bandwidth_csv(recorder) -> str:
    """Per-device read/write bandwidth over time, as CSV text.

    Transfer instants are bucketed into :data:`_BANDWIDTH_BINS` equal
    slices of the traced window; each row reports MB/s per device and
    direction.
    """
    bins = _BANDWIDTH_BINS
    transfers = recorder.index().of(CAT_TRANSFER)
    devices = []
    for event in transfers:
        name = event.track[len("dev:"):]
        if name not in devices:
            devices.append(name)
    header = ["t_s"] + [
        f"{dev}_{op}_MBps" for dev in devices for op in ("read", "write")
    ]
    if not transfers:
        return ",".join(header) + "\n"
    times = [e.ts for e in transfers]
    width, slots = equal_bins(times, 0.0, max(times), bins)
    totals = [[0.0] * (2 * len(devices)) for __ in range(bins)]
    for idx, event in zip(slots, transfers):
        dev = event.track[len("dev:"):]
        col = 2 * devices.index(dev) + (0 if event.name == "read" else 1)
        totals[idx][col] += (event.args or {}).get("bytes", 0)
    lines = [",".join(header)]
    for i in range(bins):
        cells = [f"{(i + 0.5) * width:.9f}"]
        cells += [f"{b / width / 2 ** 20:.6f}" for b in totals[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def queue_depth_csv(recorder) -> str:
    """Background jobs in flight over time, as a step-function CSV.

    One row per change point: ``t_s,depth`` where ``depth`` is the
    number of worker-track spans covering ``t``.
    """
    edges: List[Tuple[float, int]] = []
    for span in recorder.worker_spans():
        edges.append((span.ts, 1))
        edges.append((span.end, -1))
    lines = ["t_s,depth"]
    if edges:
        edges.sort()
        depth = 0
        i = 0
        while i < len(edges):
            t = edges[i][0]
            while i < len(edges) and edges[i][0] == t:
                depth += edges[i][1]
                i += 1
            lines.append(f"{t:.9f},{depth}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- ascii gantt


def gantt(recorder) -> str:
    """The recorder's background work as an ASCII gantt chart,
    :data:`_GANTT_WIDTH` cells wide: one row per worker (sorted), ``#``
    where busy.
    """
    spans = [
        (span.track[len("worker:"):], span.ts, span.end)
        for span in recorder.worker_spans()
    ]
    if not spans:
        return "(no jobs traced)"
    width = _GANTT_WIDTH
    t0 = min(s[1] for s in spans)
    t1 = max(s[2] for s in spans)
    window = (t1 - t0) or 1e-12
    labels = sorted({s[0] for s in spans})
    label_width = max(len(label) for label in labels)
    lines = []
    for label in labels:
        cells = [" "] * width
        for name, start, end in spans:
            if name != label:
                continue
            lo = int((start - t0) / window * width)
            hi = max(lo + 1, int((end - t0) / window * width))
            for i in range(lo, min(hi, width)):
                cells[i] = "#"
        lines.append(f"{label.ljust(label_width)} |{''.join(cells)}|")
    lines.append(f"{' ' * label_width} t={t0 * 1e3:.2f}ms ... {t1 * 1e3:.2f}ms")
    return "\n".join(lines)
