"""Assembled analysis reports: one store, or a cluster of shards.

The report is a plain dict built from deterministic pieces (attribution
summary, conservation check, critical paths, profile tree, per-level
byte accounting) and serialized with sorted keys, so two runs of the
same seed produce byte-identical JSON and text output.
"""

from typing import List

from repro.obs.analyze.attribution import Accumulator, accumulate, summarize, walk_ops
from repro.obs.analyze.critical_path import critical_paths, stall_blame
from repro.obs.analyze.profile import render_profile, time_profile
from repro.obs.analyze.replication import replication_summary
from repro.obs.analyze.timeline import (
    bytes_moved_timeline, persistent_write_bytes, transfer_writes,
)

#: Critical paths kept in a report (the longest stalls).
TOP_CHAINS = 5


def conservation_check(ops) -> dict:
    """Verify components sum to measured latency for every op in ``ops``
    (an :func:`attribute_ops` list or a fed :class:`Accumulator`)."""
    return accumulate(ops).conservation()


def analyze_run(recorder, system, store_name: str) -> dict:
    """The full analysis document for one traced store run.

    Every section reads the recorder's one classified index; the per-op
    sections come from one :func:`walk_ops` over its foreground events.
    """
    acc = Accumulator()
    walk_ops(recorder, acc.add)
    return _run_doc(recorder, system, store_name, acc)


def _run_doc(recorder, system, store_name: str, acc: Accumulator) -> dict:
    """:func:`analyze_run` with ``acc`` fed the recorder's ops."""
    chains = critical_paths(recorder)
    chains_by_len = sorted(
        chains, key=lambda c: (-c.duration_s, c.start)
    )[:TOP_CHAINS]
    end_s = system.clock.now
    user_bytes = system.stats.get("user.bytes_written")
    writes = transfer_writes(recorder)
    persistent = persistent_write_bytes(writes, system)
    profile = time_profile(acc, recorder, end_s)
    # Present only on traces with repl.* events, so unreplicated
    # analysis documents stay byte-identical.
    replication = replication_summary(recorder)
    return {
        **({"replication": replication} if replication is not None else {}),
        "schema": 1,
        "store": store_name,
        "sim_time_s": end_s,
        "events": len(recorder.events),
        "attribution": summarize(acc),
        "conservation": conservation_check(acc),
        "stall_seconds_by_cause": dict(
            sorted(recorder.stall_seconds_by_cause().items())
        ),
        "stall_blame": stall_blame(chains),
        "critical_paths": [chain.as_dict() for chain in chains_by_len],
        "profile": profile,
        "per_level": profile["per_level"],
        "write": {
            "persistent_bytes": persistent,
            "user_bytes": user_bytes,
            # The fig-11 ratio: persistent traffic over logical user writes.
            "write_amplification": (
                persistent / user_bytes if user_bytes > 0 else 0.0
            ),
        },
        "timeline": bytes_moved_timeline(writes, end_s),
    }


def analyze_cluster(cluster, recorders: List[object]) -> dict:
    """Per-shard analysis plus the router-merged attribution summary.

    ``recorders`` is the list from ``cluster.attach_tracing()`` (shard
    order).  Per-shard attributions include the admission-queue wait
    the driver recorded on each shard's router track; the merged
    accumulator takes the shards' ops in shard order, which is exactly
    what a client sees through the router.
    """
    if len(recorders) != cluster.n_shards:
        raise ValueError(
            f"expected {cluster.n_shards} recorders, got {len(recorders)}"
        )
    shard_docs = {}
    merged = Accumulator()
    for shard, recorder in zip(cluster.shards, recorders):
        acc = Accumulator()
        walk_ops(recorder, lambda *op, add=acc.add: (add(*op), merged.add(*op)))
        shard_docs[str(shard.shard_id)] = _run_doc(
            recorder, shard.system, f"shard{shard.shard_id}:{cluster.store_name}",
            acc,
        )
    return {
        "schema": 1,
        "store": cluster.store_name,
        "n_shards": cluster.n_shards,
        "sim_time_s": cluster.clock.now,
        "attribution": summarize(merged),
        "conservation": conservation_check(merged),
        "shards": shard_docs,
    }


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds * 1e3:.4f}ms"


def _component_line(label: str, seconds: float, measured: float) -> str:
    share = seconds / measured * 100 if measured > 0 else 0.0
    return f"  {label:<24} {_fmt_seconds(seconds):>12}  {share:5.1f}%"


def _attribution_lines(attribution: dict, queue: bool) -> List[str]:
    """One line per attribution component, then the measured total."""
    parts = [("queue (admission)", attribution["queue_s"])] if queue else []
    parts += [(f"stall:{c}", s) for c, s in attribution["stall_s"].items()]
    parts += [(f"dev:{d}", s) for d, s in attribution["device_s"].items()]
    parts += [(f"repl:{k}", s) for k, s in attribution.get("repl_s", {}).items()]
    parts += [("other (cpu)", attribution["other_s"]),
              ("measured total", attribution["measured_s"])]
    measured = attribution["measured_s"]
    return [_component_line(label, seconds, measured) for label, seconds in parts]


def render_analysis(doc: dict, profile: bool = True) -> str:
    """The analysis document as a fixed-width text report."""
    attribution = doc["attribution"]
    lines = [
        f"== latency attribution: {doc['store']} "
        f"({attribution['ops']} ops, {_fmt_seconds(doc['sim_time_s'])} simulated) =="
    ]
    lines += _attribution_lines(attribution, bool(attribution.get("queue_s")))
    conservation = doc["conservation"]
    lines.append(
        f"conservation: {'exact' if conservation['exact'] else 'RESIDUAL'} "
        f"over {conservation['ops']} ops "
        f"(max |residual| {conservation['max_abs_residual_s']:.3e}s)"
    )
    if doc.get("critical_paths"):
        lines.append("")
        lines.append("== longest stalls and their job chains ==")
        for chain in doc["critical_paths"]:
            names = " <- ".join(link["job"] for link in chain["chain"])
            lines.append(
                f"  {chain['cause']:<16} {_fmt_seconds(chain['duration_s']):>12}"
                f"  at {_fmt_seconds(chain['start_s'])}  {names or '(no pending job)'}"
            )
    if doc.get("per_level"):
        lines.append("")
        lines.append("== per-level bytes moved ==")
        for label, node in doc["per_level"].items():
            lines.append(
                f"  {label:<8} {node['jobs']:>4} jobs  {node['bytes']:>12} B"
                f"  {_fmt_seconds(node['seconds']):>12}"
            )
    write = doc.get("write")
    if write:
        lines.append(
            f"write amplification: {write['write_amplification']:.3f} "
            f"({write['persistent_bytes']} persistent B / "
            f"{write['user_bytes']} user B)"
        )
    out = "\n".join(lines) + "\n"
    if profile and "profile" in doc:
        out += "\n" + render_profile(doc["profile"])
    return out


def render_cluster_analysis(doc: dict) -> str:
    """Cluster analysis: merged summary plus a per-shard breakdown."""
    lines = [
        f"== cluster attribution: {doc['store']} x{doc['n_shards']} shards "
        f"({doc['attribution']['ops']} ops) ==",
    ]
    lines += _attribution_lines(doc["attribution"], queue=True)
    conservation = doc["conservation"]
    lines.append(
        f"conservation: {'exact' if conservation['exact'] else 'RESIDUAL'} "
        f"over {conservation['ops']} ops"
    )
    lines.append("")
    lines.append(
        f"{'shard':>5} {'ops':>6} {'queue':>12} {'stalls':>12} "
        f"{'device':>12} {'repl':>12} {'other':>12}"
    )
    for shard_id in sorted(doc["shards"], key=int):
        shard = doc["shards"][shard_id]["attribution"]
        columns = (
            shard["queue_s"], sum(shard["stall_s"].values()),
            sum(shard["device_s"].values()),
            sum(shard.get("repl_s", {}).values()), shard["other_s"],
        )
        lines.append(f"{shard_id:>5} {shard['ops']:>6} " + " ".join(
            f"{_fmt_seconds(seconds):>12}" for seconds in columns))
    return "\n".join(lines) + "\n"


def slo_document(
    monitor_report: dict,
    series: dict,
    store_name: str,
    sim_time_s: float,
) -> dict:
    """Assemble the ``repro slo`` document (monitor + rolling series)."""
    return {
        "schema": 1,
        "store": store_name,
        "sim_time_s": sim_time_s,
        "monitor": monitor_report,
        "series": series,
    }


def render_slo(doc: dict) -> str:
    """The SLO document as a fixed-width text report."""
    monitor = doc["monitor"]
    objective = monitor["objective"]
    lines = [
        f"== SLO: {objective['name']} on {doc['store']} ==",
        f"objective: p(latency <= {objective['threshold_us']:g}us) >= "
        f"{objective['target']}",
        f"samples: {monitor['samples']}  bad: {monitor['bad']}  "
        f"compliance: "
        + (
            f"{monitor['compliance']:.6f}"
            if monitor["compliance"] is not None
            else "n/a"
        ),
    ]
    if monitor["alerts"]:
        lines.append("")
        lines.append("alert log (burn-rate rules, simulated clock):")
        for alert in monitor["alerts"]:
            lines.append(
                f"  {alert['t_s'] * 1e3:>10.4f}ms {alert['state']:<8} "
                f"{alert['rule']:<16} burn short={alert['burn_short']:.2f} "
                f"long={alert['burn_long']:.2f}"
            )
    else:
        lines.append("alert log: empty (no burn-rate rule fired)")
    if monitor["firing_at_end"]:
        lines.append(f"still firing at end: {', '.join(monitor['firing_at_end'])}")
    series = doc["series"]
    pkey = f"p{series['p']:g}_us"
    lines.append("")
    lines.append(
        f"rolling window {series['window_s']:g}s "
        f"({len(series['rows'])} grid points):"
    )
    lines.append(f"{'t_ms':>10} {'count':>7} {'kiops':>9} {pkey:>12}")
    for row in series["rows"]:
        pctl = row[pkey]
        lines.append(
            f"{row['t_s'] * 1e3:>10.4f} {row['count']:>7} {row['kiops']:>9.2f} "
            + (f"{pctl:>12.2f}" if pctl is not None else f"{'-':>12}")
        )
    if series["throughput_breaches"]:
        lines.append(
            f"throughput breaches: {len(series['throughput_breaches'])} "
            "grid points under the floor"
        )
    return "\n".join(lines) + "\n"
