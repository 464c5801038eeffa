"""Top-down time profile: where simulated time went, per store and level.

Two sections, both derived purely from the trace:

- *foreground*: the serial client timeline, broken down by op kind and,
  inside each kind, by attribution component (stalls by cause, device
  time by device, residual CPU/other).  Time outside any op is idle.
- *workers*: per background worker busy time, broken down by job name,
  with per-level compaction totals alongside.

Rendered as an indented ASCII tree (flamegraph-style, widest first) or
embedded as JSON in the analysis report.
"""

from typing import Dict, List

from repro.obs.analyze.attribution import accumulate
from repro.obs.analyze.timeline import per_level_bytes

_BAR_WIDTH = 24


def time_profile(ops, recorder, total_s: float) -> dict:
    """The profile tree for one store's trace (deterministic dict);
    ``ops`` is its :func:`attribute_ops` list or a fed ``Accumulator``."""
    workers: Dict[str, dict] = {}
    for span in recorder.worker_spans():
        worker = span.track.split(":", 1)[1]
        node = workers.setdefault(worker, {"busy_s": 0.0, "jobs": {}})
        node["busy_s"] += span.dur
        job = node["jobs"].setdefault(
            span.name, {"count": 0, "seconds": 0.0, "bytes": 0}
        )
        job["count"] += 1
        job["seconds"] += span.dur
        job["bytes"] += (span.args or {}).get("bytes", 0)

    return {
        "total_s": total_s,
        "foreground": accumulate(ops).foreground(total_s),
        "workers": {name: workers[name] for name in sorted(workers)},
        "per_level": per_level_bytes(recorder),
    }


def _bar(fraction: float) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * _BAR_WIDTH))
    return "#" * filled + "." * (_BAR_WIDTH - filled)


def _line(lines: List[str], depth: int, label: str, seconds: float, total: float,
          suffix: str = "") -> None:
    frac = seconds / total if total > 0 else 0.0
    lines.append(
        f"{'  ' * depth}{label:<{32 - 2 * depth}} "
        f"{seconds * 1e3:>10.4f}ms {frac * 100:>6.1f}% {_bar(frac)}{suffix}"
    )


def render_profile(profile: dict) -> str:
    """The profile tree as fixed-width ASCII (byte-stable)."""
    total = profile["total_s"]
    lines: List[str] = []
    _line(lines, 0, "simulated time", total, total)
    fg = profile["foreground"]
    _line(lines, 1, "foreground", fg["seconds"], total)
    ops = fg["ops"]
    for kind in sorted(ops, key=lambda k: (-ops[k]["seconds"], k)):
        node = ops[kind]
        _line(lines, 2, kind, node["seconds"], total, f"  x{node['count']}")
        children = node["children"]
        for key in sorted(children, key=lambda k: (-children[k], k)):
            _line(lines, 3, key, children[key], total)
    _line(lines, 1, "foreground idle", fg["idle_s"], total)
    lines.append("")
    lines.append("workers (busy time)")
    workers = profile["workers"]
    for name in sorted(workers, key=lambda w: (-workers[w]["busy_s"], w)):
        node = workers[name]
        _line(lines, 1, name, node["busy_s"], total)
        jobs = node["jobs"]
        for job in sorted(jobs, key=lambda j: (-jobs[j]["seconds"], j)):
            _line(
                lines, 2, job, jobs[job]["seconds"], total,
                f"  x{jobs[job]['count']}",
            )
    per_level = profile["per_level"]
    if per_level:
        lines.append("")
        lines.append("per level (flush/compaction)")
        for label in sorted(per_level):
            node = per_level[label]
            _line(
                lines, 1, label, node["seconds"], total,
                f"  x{node['jobs']}  {node['bytes']} B",
            )
    return "\n".join(lines) + "\n"
