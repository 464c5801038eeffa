"""Differential trace analysis: what changed between two runs.

:func:`diff_analysis` backs ``repro diff``: it compares two ``repro
analyze`` documents (same store, different code or configuration).
Every numeric leaf of the comparable sections -- attribution buckets,
stall causes, per-device and per-level time, write amplification,
bytes-moved timeline bins, replication phases -- becomes one delta row,
ranked by relative magnitude.  Two same-seed runs of the same code
produce byte-identical analysis documents, so their diff has exactly
zero rows.

The document carries a one-line ``verdict`` naming the biggest mover.
Ranking keys are pure functions of the inputs and ties break on the
metric name, so the report is byte-stable.
"""

from typing import Dict, List

#: Analysis-document sections compared leaf-by-leaf.  Unlisted sections
#: are either non-numeric narratives (critical paths, profile trees,
#: failover timelines) or meta-data that must not alarm a diff
#: (conservation bookkeeping).
ANALYSIS_SECTIONS = (
    "sim_time_s",
    "events",
    "attribution",
    "stall_seconds_by_cause",
    "per_level",
    "write",
    "timeline",
    "replication",
)

#: Subtrees under the compared sections that are timelines-of-record or
#: examples rather than aggregate metrics.
_SKIP_SUBTREES = frozenset({"slowest", "failovers", "lag"})


def _flatten(prefix: str, node, out: Dict[str, float]) -> None:
    """Numeric leaves of ``node`` as dotted/indexed paths into ``out``."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = node
    elif isinstance(node, dict):
        for key in node:
            if key in _SKIP_SUBTREES:
                continue
            _flatten(f"{prefix}.{key}" if prefix else str(key), node[key], out)
    elif isinstance(node, list):
        for at, item in enumerate(node):
            _flatten(f"{prefix}[{at}]", item, out)


def _metrics(doc: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for section in ANALYSIS_SECTIONS:
        if section in doc:
            _flatten(section, doc[section], out)
    return out


def _rel(a: float, b: float) -> float:
    """Relative delta magnitude in (0, 1]; unit-free ranking key."""
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale > 0 else 0.0


def diff_analysis(
    a: dict, b: dict, label_a: str = "a", label_b: str = "b"
) -> dict:
    """Ranked numeric deltas between two analysis documents.

    Rows carry the metric path, both values, the absolute delta
    (``b - a``), and the ratio (``b / a`` when defined).  Metrics absent
    on one side diff against an implicit zero -- a stall cause that
    disappeared still ranks.  Exact-zero deltas are dropped, so a
    same-seed self-diff reports an empty list.
    """
    metrics_a = _metrics(a)
    metrics_b = _metrics(b)
    deltas: List[dict] = []
    for metric in set(metrics_a) | set(metrics_b):
        va = metrics_a.get(metric, 0.0)
        vb = metrics_b.get(metric, 0.0)
        if va == vb:
            continue
        deltas.append({
            "metric": metric,
            "a": va,
            "b": vb,
            "delta": vb - va,
            "ratio": (vb / va) if va != 0 else None,
        })
    deltas.sort(key=lambda row: (-_rel(row["a"], row["b"]),
                                 -abs(row["delta"]), row["metric"]))
    doc = {
        "schema": 1,
        "mode": "analysis",
        "a": label_a,
        "b": label_b,
        "store_a": a.get("store"),
        "store_b": b.get("store"),
        "deltas": deltas,
    }
    doc["verdict"] = _analysis_verdict(doc)
    return doc


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _analysis_verdict(doc: dict) -> str:
    deltas = doc["deltas"]
    if not deltas:
        return (
            f"no differences: {doc['a']} and {doc['b']} are "
            "numerically identical"
        )
    top = deltas[0]
    pct = _rel(top["a"], top["b"]) * 100.0
    return (
        f"{len(deltas)} metrics differ; biggest: {top['metric']} "
        f"{_fmt(top['a'])} -> {_fmt(top['b'])} ({pct:.1f}% shift) "
        f"from {doc['a']} to {doc['b']}"
    )


#: Rows ``render_diff`` prints before pointing at the JSON.
_TOP_ROWS = 20


def render_diff(doc: dict) -> str:
    """The diff document as a fixed-width text report."""
    lines = [
        f"== repro diff ({doc['mode']}): {doc['a']} -> {doc['b']} ==",
        doc["verdict"],
    ]
    deltas = doc["deltas"]
    shown = deltas[:_TOP_ROWS]
    if shown:
        lines.append(
            f"{'metric':<44} {'a':>14} {'b':>14} {'shift':>8}"
        )
    for row in shown:
        pct = _rel(row["a"], row["b"]) * 100.0
        lines.append(
            f"{row['metric']:<44} {_fmt(row['a']):>14} "
            f"{_fmt(row['b']):>14} {pct:>7.1f}%"
        )
    if len(deltas) > _TOP_ROWS:
        lines.append(f"... {len(deltas) - _TOP_ROWS} more rows (see --out JSON)")
    return "\n".join(lines) + "\n"
