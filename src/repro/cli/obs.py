"""Observability commands over one traced run: ``trace``, ``analyze``,
``slo``, and ``diff`` between two analysis documents."""

import argparse
import pathlib
import sys

from repro.cli import (
    _flags,
    _live_flags,
    _live_overrides,
    _nonnegative_float,
    _nonnegative_int,
    _number_arg,
    _positive_int,
    _trace_path,
    _workload_flags,
    _wrote,
    _wrote_flight_dumps,
)
from repro.obs.export import document_json
from repro.workloads import YCSB_WORKLOADS

_positive_float = _number_arg(float, lambda x: x > 0, "a number > 0")
_slo_target = _number_arg(float, lambda x: 0 < x < 1, "a fraction in (0, 1)")


def _traced_mode_arg(value: str) -> str:
    if value in ("fillrandom", "fillseq"):
        return value
    if value.startswith("ycsb-") and value[5:].upper() in YCSB_WORKLOADS:
        return value
    raise argparse.ArgumentTypeError(
        f"unknown mode {value!r}; use fillrandom, fillseq or "
        f"ycsb-<{'|'.join(sorted(YCSB_WORKLOADS)).lower()}>"
    )


def _traced_flags() -> argparse.ArgumentParser:
    """The ``run_traced`` workload: ``trace``, ``analyze`` and ``slo``."""
    flags = _flags([_workload_flags(1024, _nonnegative_int)])
    flags.add_argument("--n", type=_positive_int, default=2048,
                       help="records to write")
    flags.add_argument(
        "--mode", type=_traced_mode_arg, default="fillrandom",
        help="fillrandom, fillseq, or ycsb-<letter> (e.g. ycsb-a)",
    )
    flags.add_argument("--reads", type=_nonnegative_int, default=256,
                       help="reads after the fill (0 to skip), or workload "
                            "ops (ycsb)")
    return flags


def _run_traced(name: str, args, live=None):
    """``run_traced`` on the shared traced-workload flags."""
    from repro.obs import run_traced

    return run_traced(
        name, n=args.n, value_size=args.value_size, mode=args.mode,
        reads=args.reads, seed=args.seed, ssd=args.ssd, live=live,
    )


def cmd_trace(args) -> int:
    """Traced run of a deterministic workload; writes trace artifacts."""
    from repro.obs import (
        bandwidth_csv,
        chrome_trace_json,
        gantt,
        metrics_json,
        openmetrics_text,
        queue_depth_csv,
    )

    multi = len(args.store) > 1
    for name in args.store:
        store, system, recorder = _run_traced(
            name, args, live=_live_overrides(args) if args.live else None
        )
        _wrote("trace", _trace_path(args.out, name, multi),
               chrome_trace_json(recorder, name),
               note=f" ({len(recorder)} events)")
        if args.live:
            meta = recorder.sampling_meta()
            print(
                f"# sampled: {meta['ops_retained']}/{meta['ops_seen']} ops "
                f"retained (head={meta['retained_head']} "
                f"tail={meta['retained_tail']} "
                f"stall={meta['retained_stall']})",
                file=sys.stderr,
            )
            if args.openmetrics:
                _wrote("openmetrics", _trace_path(args.openmetrics, name, multi),
                       openmetrics_text(recorder, labels=["0"]))
            if args.flight_dir:
                _wrote_flight_dumps([recorder], [name], args.flight_dir)
        if args.metrics:
            _wrote("metrics", _trace_path(args.metrics, name, multi),
                   metrics_json(system, recorder))
        if args.bandwidth_csv:
            _wrote("bandwidth", _trace_path(args.bandwidth_csv, name, multi),
                   bandwidth_csv(recorder))
        if args.queue_csv:
            _wrote("queue depth", _trace_path(args.queue_csv, name, multi),
                   queue_depth_csv(recorder))
        if args.gantt:
            print(f"## {name}")
            print(gantt(recorder))
    return 0


def cmd_analyze(args) -> int:
    """Traced run + latency attribution / critical-path / WA report."""
    from repro.obs.analyze import analyze_run, render_analysis

    multi = len(args.store) > 1
    for name in args.store:
        store, system, recorder = _run_traced(name, args)
        doc = analyze_run(recorder, system, name)
        if args.json:
            _wrote("analysis", _trace_path(args.json, name, multi),
                   document_json(doc))
        print(render_analysis(doc, profile=not args.no_profile), end="")
        if multi and name != args.store[-1]:
            print()
    return 0


def cmd_slo(args) -> int:
    """Traced run + SLO compliance, burn-rate alert log, rolling tails."""
    from repro.obs.analyze import (
        BurnRateRule,
        SloMonitor,
        SloObjective,
        attribute_ops,
        render_slo,
        rolling_series,
        slo_document,
    )

    multi = len(args.store) > 1
    for name in args.store:
        store, system, recorder = _run_traced(name, args)
        end_s = system.clock.now
        samples = [(attr.end, attr.measured_s) for attr in attribute_ops(recorder)]
        # Windows default to fractions of the simulated run so one flag
        # set works at any scale; an explicit --long-ms overrides.
        long_s = args.long_ms * 1e-3 if args.long_ms else end_s / 10
        short_s = long_s / 5
        objective = SloObjective(
            "op-latency", args.threshold_us * 1e-6, target=args.target
        )
        monitor = SloMonitor(
            objective, [BurnRateRule(short_s, long_s, args.factor)]
        )
        series = rolling_series(samples, end_s, long_s, min_kiops=args.min_kiops)
        doc = slo_document(monitor.run(samples), series, name, end_s)
        if args.json:
            _wrote("slo", _trace_path(args.json, name, multi), document_json(doc))
        print(render_slo(doc), end="")
        if multi and name != args.store[-1]:
            print()
    return 0


def cmd_diff(args) -> int:
    """Diff two ``repro analyze --json`` documents (docs/observability.md)."""
    import json

    from repro.obs.analyze import diff_analysis, render_diff

    docs = []
    for path in (args.a, args.b):
        try:
            doc = json.loads(pathlib.Path(path).read_text())
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        except (OSError, ValueError) as exc:
            print(f"cannot read analysis JSON {path}: {exc}", file=sys.stderr)
            return 2
        docs.append(doc)
    report = diff_analysis(
        docs[0], docs[1],
        label_a=pathlib.Path(args.a).name,
        label_b=pathlib.Path(args.b).name,
    )
    print(render_diff(report), end="")
    if args.out:
        _wrote("diff report", args.out, document_json(report))
    return 0


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "trace", help="run a traced workload, write Perfetto/CSV artifacts",
        parents=[_traced_flags(), _live_flags()],
    )
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="Chrome/Perfetto trace-event JSON output")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="also write a hierarchical metrics snapshot (JSON)")
    p.add_argument("--bandwidth-csv", default=None, metavar="FILE",
                   help="also write a per-device bandwidth time series")
    p.add_argument("--queue-csv", default=None, metavar="FILE",
                   help="also write the background queue-depth time series")
    p.add_argument("--gantt", action="store_true",
                   help="print an ASCII gantt of background jobs")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "analyze",
        help="latency attribution, critical paths, and WA from a traced run",
        parents=[_traced_flags()],
    )
    p.add_argument("--no-profile", action="store_true",
                   help="skip the top-down time profile section")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the full analysis document (JSON)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "slo",
        help="SLO compliance + burn-rate alert log from a traced run",
        parents=[_traced_flags()],
    )
    p.add_argument("--threshold-us", type=_positive_float, default=10.0,
                   help="per-op latency threshold in microseconds")
    p.add_argument("--target", type=_slo_target, default=0.999,
                   help="required fraction of ops under the threshold")
    p.add_argument("--long-ms", type=_nonnegative_float, default=0.0,
                   help="long burn window (0 = run duration/10); short = long/5")
    p.add_argument("--factor", type=_positive_float, default=2.0,
                   help="burn-rate factor both windows must exceed")
    p.add_argument("--min-kiops", type=_nonnegative_float, default=None,
                   help="flag rolling-window throughput under this floor")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the full SLO document (JSON)")
    p.set_defaults(func=cmd_slo)


def add_diff_parser(sub) -> None:
    p = sub.add_parser(
        "diff", help="differential analysis between two analyze documents"
    )
    p.add_argument("a", help="analysis JSON path")
    p.add_argument("b", help="analysis JSON path")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the full diff document as JSON")
    p.set_defaults(func=cmd_diff)
