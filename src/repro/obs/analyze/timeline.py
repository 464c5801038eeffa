"""Per-level bytes-moved and write-amplification accounting from traces.

Every device read/write is a ``transfer`` instant with a byte count, and
every flush/compaction job span carries the bytes it moved plus (for
compactions) its level.  This module aggregates them into:

- :func:`persistent_write_bytes` -- total bytes written to persistent
  media according to the trace; when tracing covered the whole run this
  equals ``system.persistent_bytes_written()`` *exactly*, which is the
  numerator of the fig-11 write-amplification metric;
- :func:`per_level_bytes` -- bytes/jobs/seconds moved per level label
  (``flush`` for memtable flushes, ``L<n>`` for compactions);
- :func:`bytes_moved_timeline` -- cumulative per-device written bytes
  sampled on a fixed simulated-time grid (deterministic rows suitable
  for CSV export or plotting).
"""

import math
from typing import Dict, List

from repro.obs.events import CAT_TRANSFER
from repro.sim.latency import window_slice


def transfer_writes(recorder) -> list:
    """The recorder's ``write`` transfer instants, in emission order."""
    return [e for e in recorder.index().of(CAT_TRANSFER) if e.name == "write"]


def persistent_write_bytes(writes, system) -> int:
    """Bytes written to ``system``'s persistent devices, summed from
    ``writes``, the recorder's :func:`transfer_writes`."""
    tracks = {f"dev:{dev.name}" for dev in system.persistent_devices()}
    return sum(
        (event.args or {}).get("bytes", 0)
        for event in writes
        if event.track in tracks
    )


def per_level_bytes(recorder) -> Dict[str, dict]:
    """Bytes moved per level label, from flush/compaction job spans."""
    levels: Dict[str, dict] = {}
    for span in recorder.worker_spans():
        if span.cat not in ("flush", "compact"):
            continue
        args = span.args or {}
        label = f"L{args['level']}" if "level" in args else "flush"
        node = levels.setdefault(label, {"jobs": 0, "bytes": 0, "seconds": 0.0})
        node["jobs"] += 1
        node["bytes"] += args.get("bytes", 0)
        node["seconds"] += span.dur
    return {label: levels[label] for label in sorted(levels)}


#: Steps of the analysis document's bytes-moved grid.
TIMELINE_BINS = 20


def bytes_moved_timeline(writes, end_s: float) -> List[dict]:
    """Cumulative written bytes per device on a fixed time grid.

    ``writes`` are the recorder's :func:`transfer_writes`.  Returns one
    row per grid point: ``{"t_s", "<device>": bytes, ...}``.  The grid
    spans ``[0, end_s]`` in :data:`TIMELINE_BINS` equal steps, so
    repeated runs of the same seed produce identical rows.
    """
    bins = TIMELINE_BINS
    if end_s < 0:
        raise ValueError(f"end_s must be >= 0, got {end_s}")
    names: Dict[str, str] = {}
    for event in writes:
        if event.track not in names:
            names[event.track] = event.track.split(":", 1)[1]
    events = sorted(
        (
            (event.ts, names[event.track], (event.args or {}).get("bytes", 0))
            for event in writes
        ),
        key=lambda item: item[0],
    )
    times = [ts for ts, __, __ in events]
    devices = sorted(set(names.values()))
    cumulative = {device: 0 for device in devices}
    rows: List[dict] = []
    cursor = 0
    for i in range(bins + 1):
        edge = end_s * i / bins
        __, right = window_slice(times, edge, math.inf)
        for __, device, nbytes in events[cursor:right]:
            cumulative[device] += nbytes
        cursor = right
        row = {"t_s": edge}
        row.update({device: cumulative[device] for device in devices})
        rows.append(row)
    return rows
