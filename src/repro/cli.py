"""Command-line interface.

Run workloads against any store in the library from a shell::

    python -m repro dbbench --store miodb --n 8192
    python -m repro ycsb --store all --workloads A,C --records 4096
    python -m repro compare
    python -m repro trace --store miodb --n 2048 --out trace.json
    python -m repro analyze --store miodb --mode ycsb-a
    python -m repro slo --store miodb --threshold-us 10 --target 0.999
    python -m repro cluster --shards 4 --followers 2 --ack quorum
    python -m repro chaos --store miodb --seeds 3,7,42 --report chaos.json
    python -m repro info
    python -m repro check --strict

Every run is deterministic (simulated time); throughput and latency
numbers are directly comparable across stores and invocations, and
trace artifacts (``repro trace`` or ``--trace FILE`` on the workload
commands) are byte-identical across runs with the same seed.
"""

import argparse
import math
import pathlib
import sys
from typing import List

from repro.bench import STORE_NAMES, default_scale, format_table, make_store
from repro.mem.profiles import DRAM_PROFILE, NVME_SSD_PROFILE, OPTANE_NVM_PROFILE
from repro.persist.wal import parse_fsync_policy
from repro.workloads import (
    YCSB_WORKLOADS,
    fill_random,
    fill_seq,
    load_phase,
    read_random,
    read_seq,
    run_workload,
)


def _stores_arg(value: str) -> List[str]:
    if value == "all":
        return list(STORE_NAMES)
    names = [v.strip() for v in value.split(",") if v.strip()]
    for name in names:
        if name not in STORE_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown store {name!r}; choose from {STORE_NAMES} or 'all'"
            )
    return names


def _traced_mode_arg(value: str) -> str:
    if value in ("fillrandom", "fillseq"):
        return value
    if value.startswith("ycsb-") and value[5:].upper() in YCSB_WORKLOADS:
        return value
    raise argparse.ArgumentTypeError(
        f"unknown mode {value!r}; use fillrandom, fillseq or "
        f"ycsb-<{'|'.join(sorted(YCSB_WORKLOADS)).lower()}>"
    )


def _parse_seeds(value: str) -> List[int]:
    return [int(s) for s in value.split(",") if s.strip()]


def _number_arg(cast, accept, expected: str):
    """A ``type=`` callable: ``cast`` the text, then ``accept`` the number."""

    def parse(value: str):
        try:
            number = cast(value)
        except ValueError:
            number = None
        if number is None or not accept(number):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return number

    return parse


_positive_int = _number_arg(int, lambda n: n >= 1, "an integer >= 1")
_positive_float = _number_arg(float, lambda x: x > 0, "a number > 0")
_fraction = _number_arg(float, lambda x: 0 <= x <= 1, "a fraction in [0, 1]")
_slo_target = _number_arg(float, lambda x: 0 < x < 1, "a fraction in (0, 1)")
_nonnegative_float = _number_arg(float, lambda x: x >= 0, "a number >= 0")
_nonnegative_int = _number_arg(int, lambda n: n >= 0, "an integer >= 0")
_rate = _number_arg(
    float, lambda x: not math.isnan(x), "a number (<= 0 means closed-loop)"
)
_zipf_theta = _number_arg(float, lambda x: 0 <= x < 1, "a number in [0, 1)")
#: ``ChaosSchedule`` keeps kills inside the middle 80 % of the run.
_chaos_ops = _number_arg(int, lambda n: n >= 10, "an integer >= 10")


def _text_arg(valid, expected: str):
    """A ``type=`` callable that keeps the text, which the command parses:
    ``valid(text)`` must be truthy and raise no ``ValueError``."""
    check = _number_arg(valid, bool, expected)

    def parse(value: str) -> str:
        check(value)
        return value

    return parse


_seeds_arg = _text_arg(_parse_seeds, "a comma list of integer seeds")
_fsync_policy_arg = _text_arg(
    parse_fsync_policy, "sync, batch:N (N >= 1) or interval:T (T > 0 seconds)"
)
_workloads_arg = _text_arg(
    lambda value: all(w.strip().upper() in YCSB_WORKLOADS for w in value.split(",")),
    f"a comma list of YCSB workloads ({', '.join(sorted(YCSB_WORKLOADS))})",
)
_directory_arg = _text_arg(
    lambda value: pathlib.Path(value).is_dir(), "an existing directory"
)


# Flag groups shared between subcommands, as argparse ``parents=``.  Each
# call builds a fresh parent: a child's ``set_defaults`` rewrites the
# defaults of the (shared) action objects it inherited.


def _flags(parents=()) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _workload_flags(value_size: int) -> argparse.ArgumentParser:
    """What every workload-running subcommand takes."""
    flags = _flags()
    flags.add_argument(
        "--store", type=_stores_arg, default=["miodb"],
        help="store name, comma list, or 'all'",
    )
    flags.add_argument("--value-size", type=_nonnegative_int, default=value_size)
    flags.add_argument("--ssd", action="store_true",
                       help="use the DRAM-NVM-SSD hierarchy")
    flags.add_argument("--seed", type=int, default=1)
    return flags


def _common_flags(fsync=False, batch=False) -> argparse.ArgumentParser:
    flags = _flags([_workload_flags(4096)])
    flags.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome/Perfetto trace of each store's run to FILE "
             "(with multiple stores the store name is suffixed)",
    )
    if fsync:
        flags.add_argument("--fsync-policy", type=_fsync_policy_arg,
                           default="sync", metavar="POLICY",
                           help="WAL durability: sync, batch:N, or interval:T "
                                "(simulated seconds); default %(default)s")
    if batch:
        flags.add_argument(
            "--batch-size", type=_nonnegative_int, default=128, metavar="N",
            help="ops coalesced per multi_* call (wall-clock only; "
                 "0 = per-op loop, default %(default)s)",
        )
    return flags


def _traced_flags() -> argparse.ArgumentParser:
    """The ``run_traced`` workload: ``trace``, ``analyze`` and ``slo``."""
    flags = _flags([_workload_flags(1024)])
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


def _replication_flags(followers: int) -> argparse.ArgumentParser:
    flags = _flags()
    flags.add_argument("--followers", type=_nonnegative_int, default=followers,
                       metavar="K",
                       help="follower replicas per shard (0 = unreplicated)")
    flags.add_argument("--ack", choices=["leader", "quorum", "all"],
                       default="quorum", help="write ack policy")
    flags.add_argument("--read-policy",
                       choices=["leader", "follower-eventual", "follower-ryw"],
                       default="leader", help="read routing policy")
    return flags


def _live_flags() -> argparse.ArgumentParser:
    flags = _flags()
    flags.add_argument("--live", action="store_true",
                       help="attach the sampled live-telemetry plane "
                            "instead of full tracing")
    flags.add_argument("--slo-threshold-us", type=_nonnegative_float, default=0.0,
                       help="per-op latency SLO for burn-rate flight "
                            "triggers (0 = off)")
    flags.add_argument("--stall-alert-us", type=_nonnegative_float, default=0.0,
                       help="stall duration that triggers a flight dump "
                            "(0 = off)")
    flags.add_argument("--openmetrics", default=None, metavar="FILE",
                       help="write the OpenMetrics exposition document")
    flags.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="write flight-recorder dump JSON files here")
    return flags


def _trace_path(base: str, store_name: str, multi: bool) -> pathlib.Path:
    """Per-store (chaos: per-seed) path: ``trace.json`` -> ``trace-miodb.json``."""
    path = pathlib.Path(base)
    if not multi:
        return path
    return path.with_name(f"{path.stem}-{store_name}{path.suffix or '.json'}")


def _start_trace(system, args):
    """Attach a recorder when ``--trace`` was given, else return None."""
    return system.attach_tracing() if getattr(args, "trace", None) else None


def _finish_trace(recorder, args, store_name: str, multi: bool) -> None:
    if recorder is None:
        return
    from repro.obs import write_chrome_trace

    recorder.detach()
    out = _trace_path(args.trace, store_name, multi)
    write_chrome_trace(recorder, out, process_name=store_name)
    print(f"# trace: {out} ({len(recorder)} events)", file=sys.stderr)


def _batch_arg(args):
    """``--batch-size 0`` means the per-op loop (no coalescing)."""
    return args.batch_size if args.batch_size > 0 else None


def _live_overrides(args) -> dict:
    """``attach_live`` keyword options from the shared live flags."""
    overrides = {"seed": args.seed}
    if args.slo_threshold_us > 0:
        overrides["slo_threshold_s"] = args.slo_threshold_us * 1e-6
    if args.stall_alert_us > 0:
        overrides["stall_alert_s"] = args.stall_alert_us * 1e-6
    return overrides


def _run_traced(name: str, args, live=None):
    """``run_traced`` on the shared traced-workload flags."""
    from repro.obs import run_traced

    return run_traced(
        name, n=args.n, value_size=args.value_size, mode=args.mode,
        reads=args.reads, seed=args.seed, ssd=args.ssd, live=live,
    )


def _write_flight_dumps(recorders, labels, out_dir) -> List[pathlib.Path]:
    """One JSON file per flight dump; deterministic names and bytes."""
    from repro.obs.live import FlightRecorder

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, recorder in zip(labels, recorders):
        for i, doc in enumerate(recorder.flight.dumps):
            path = out / f"flight-{label}-{i}-{doc['trigger']}.json"
            path.write_text(FlightRecorder.dump_json(doc))
            written.append(path)
    return written


def cmd_dbbench(args) -> int:
    scale = default_scale()
    n = args.n or scale.records_for(args.value_size)
    batch = _batch_arg(args)
    rows = []
    multi = len(args.store) > 1
    for name in args.store:
        store, system = make_store(
            name, scale, ssd=args.ssd, fsync_policy=args.fsync_policy
        )
        recorder = _start_trace(system, args)
        if args.mode == "fillrandom":
            w = fill_random(store, n, args.value_size, seed=args.seed,
                            batch_size=batch)
        else:
            w = fill_seq(store, n, args.value_size, batch_size=batch)
        store.quiesce()
        reads = min(args.reads, n)
        r = (
            read_random(store, reads, n, seed=args.seed + 1, batch_size=batch)
            if args.mode != "fillseq"
            else read_seq(store, reads, n, batch_size=batch)
        )
        _finish_trace(recorder, args, name, multi)
        rows.append(
            [name, w.kiops, w.latency.p999 * 1e6, r.kiops,
             r.latency.mean * 1e6, system.write_amplification()]
        )
    print(format_table(
        ["store", "write_KIOPS", "write_p999_us", "read_KIOPS",
         "read_avg_us", "WA"], rows))
    return 0


def cmd_ycsb(args) -> int:
    scale = default_scale()
    n = args.records or scale.records_for(args.value_size)
    workloads = [w.strip().upper() for w in args.workloads.split(",")]
    batch = _batch_arg(args)
    rows = []
    multi = len(args.store) > 1
    for name in args.store:
        store, system = make_store(name, scale, ssd=args.ssd)
        recorder = _start_trace(system, args)
        load = load_phase(store, n, args.value_size, seed=args.seed,
                          batch_size=batch)
        row = [name, load.kiops]
        for wl in workloads:
            result = run_workload(
                store, YCSB_WORKLOADS[wl], args.ops, n, args.value_size,
                seed=args.seed + 7, batch_size=batch,
            )
            row.append(result.kiops)
        _finish_trace(recorder, args, name, multi)
        rows.append(row)
    print(format_table(
        ["store", "load_KIOPS"] + [f"{w}_KIOPS" for w in workloads], rows))
    return 0


def cmd_compare(args) -> int:
    scale = default_scale()
    n = scale.records_for(args.value_size) // 2
    rows = []
    analyses = []
    multi = len(args.store) > 1
    for name in args.store:
        store, system = make_store(name, scale, ssd=args.ssd)
        recorder = (
            system.attach_tracing()
            if (args.trace or args.analyze)
            else None
        )
        w = fill_random(store, n, args.value_size, seed=args.seed)
        store.quiesce()
        r = read_random(store, min(1000, n), n)
        if recorder is not None and args.analyze:
            from repro.obs.analyze import analyze_run, render_analysis

            recorder.detach()
            doc = analyze_run(recorder, system, name)
            analyses.append(render_analysis(doc, profile=False))
        if args.trace:
            _finish_trace(recorder, args, name, multi)
        elif recorder is not None:
            recorder.detach()
        rows.append(
            [name, w.kiops, r.kiops, w.latency.p999 * 1e6,
             system.write_amplification(),
             # The paper distinguishes interval stalls (writes blocked
             # on a flush/L0-stop) from cumulative slowdowns (per-write
             # delays); report them separately.
             system.stats.get("stall.interval_s"),
             system.stats.get("stall.cumulative_s")]
        )
    print(format_table(
        ["store", "write_KIOPS", "read_KIOPS", "write_p999_us", "WA",
         "stall_interval_s", "stall_cumulative_s"], rows))
    for text in analyses:
        print()
        print(text, end="")
    return 0


def cmd_trace(args) -> int:
    """Traced run of a deterministic workload; writes trace artifacts."""
    from repro.obs import (
        bandwidth_csv,
        gantt,
        openmetrics_text,
        queue_depth_csv,
        write_artifact,
        write_chrome_trace,
        write_metrics,
    )

    multi = len(args.store) > 1
    for name in args.store:
        store, system, recorder = _run_traced(
            name, args, live=_live_overrides(args) if args.live else None
        )
        out = _trace_path(args.out, name, multi)
        write_chrome_trace(recorder, out, process_name=name)
        print(f"# trace: {out} ({len(recorder)} events)", file=sys.stderr)
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
                path = _trace_path(args.openmetrics, name, multi)
                write_artifact(path, openmetrics_text(recorder, labels=["0"]))
                print(f"# openmetrics: {path}", file=sys.stderr)
            if args.flight_dir:
                written = _write_flight_dumps(
                    [recorder], [name], args.flight_dir
                )
                print(f"# flight dumps: {len(written)} in {args.flight_dir}",
                      file=sys.stderr)
        if args.metrics:
            path = _trace_path(args.metrics, name, multi)
            write_metrics(system, path, recorder)
            print(f"# metrics: {path}", file=sys.stderr)
        if args.bandwidth_csv:
            path = _trace_path(args.bandwidth_csv, name, multi)
            write_artifact(path, bandwidth_csv(recorder))
            print(f"# bandwidth: {path}", file=sys.stderr)
        if args.queue_csv:
            path = _trace_path(args.queue_csv, name, multi)
            write_artifact(path, queue_depth_csv(recorder))
            print(f"# queue depth: {path}", file=sys.stderr)
        if args.gantt:
            print(f"## {name}")
            print(gantt(recorder))
    return 0


def cmd_analyze(args) -> int:
    """Traced run + latency attribution / critical-path / WA report."""
    from repro.obs import write_artifact
    from repro.obs.analyze import analysis_json, analyze_run, render_analysis

    multi = len(args.store) > 1
    for name in args.store:
        store, system, recorder = _run_traced(name, args)
        doc = analyze_run(recorder, system, name)
        if args.json:
            path = _trace_path(args.json, name, multi)
            write_artifact(path, analysis_json(doc))
            print(f"# analysis: {path}", file=sys.stderr)
        print(render_analysis(doc, profile=not args.no_profile), end="")
        if multi and name != args.store[-1]:
            print()
    return 0


def cmd_slo(args) -> int:
    """Traced run + SLO compliance, burn-rate alert log, rolling tails."""
    from repro.obs import write_artifact
    from repro.obs.analyze import (
        BurnRateRule,
        SloMonitor,
        SloObjective,
        analysis_json,
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
            path = _trace_path(args.json, name, multi)
            write_artifact(path, analysis_json(doc))
            print(f"# slo: {path}", file=sys.stderr)
        print(render_slo(doc), end="")
        if multi and name != args.store[-1]:
            print()
    return 0


def cmd_cluster(args) -> int:
    """Drive a sharded cluster: routed multi-client load, optional rebalance."""
    from repro.cluster import (
        AdmissionControl,
        ClientSpec,
        Cluster,
        ShardRouter,
        cluster_metrics_json,
        run_cluster,
        write_cluster_trace,
    )
    from repro.kvstore.values import SizedValue
    from repro.workloads.keys import key_for

    store_name = args.store[0]
    if len(args.store) > 1:
        print("cluster drives one store per run; pick one with --store",
              file=sys.stderr)
        return 2
    replication = None
    if args.followers > 0:
        from repro.replication import ReplicationConfig

        replication = ReplicationConfig(
            followers=args.followers,
            ack_policy=args.ack,
            read_policy=args.read_policy,
        )
    cluster = Cluster(
        store_name,
        n_shards=args.shards,
        ssd=args.ssd,
        replication=replication,
        fsync_policy=args.fsync_policy,
    )
    router = ShardRouter(
        cluster, placement_name=args.placement, key_space=args.key_space
    )
    recorders = (
        cluster.attach_tracing() if (args.trace or args.analyze) else None
    )
    # Preload the key space so reads hit and rebalances have keys to move.
    for i in range(args.preload):
        router.put(key_for(i), SizedValue(("preload", i), args.value_size))
    router.quiesce()
    router.reset_window()

    live_recorders = dashboard = None
    if args.live:
        # Attached after the preload: the live plane watches steady-state
        # serving (its window cursor skips pre-attach samples anyway).
        live_recorders = cluster.attach_live(**_live_overrides(args))
        from repro.obs.live import LiveDashboard
        from repro.obs.live.window import WINDOW_S

        refresh_s = (
            args.live_refresh_us * 1e-6 if args.live_refresh_us > 0
            else 4 * WINDOW_S
        )
        dashboard = LiveDashboard(
            live_recorders,
            labels=[str(s.shard_id) for s in cluster.shards],
            refresh_s=refresh_s,
            sink=lambda frame: print(frame, end=""),
            groups=cluster.groups if replication is not None else None,
        )

    theta = args.theta if args.theta > 0 else None
    rate = float("inf") if args.rate <= 0 else args.rate
    clients = [
        ClientSpec(
            n_ops=args.ops,
            rate_per_s=rate,
            key_space=args.key_space,
            read_fraction=args.read_frac,
            theta=theta,
            value_size=args.value_size,
            seed=args.seed + i,
        )
        for i in range(args.clients)
    ]
    admission = AdmissionControl(
        max_queue_depth=args.max_queue_depth, policy=args.admission
    )
    sessions = (
        [router.session() for __ in clients]
        if replication is not None
        else None
    )
    result = run_cluster(
        router,
        clients,
        admission=admission,
        rebalance_every=args.rebalance_every,
        dashboard=dashboard,
        sessions=sessions,
    )
    router.quiesce()
    if dashboard is not None:
        dashboard.force_refresh(cluster.clock.now)

    rows = [
        [d["shard"], d["ops"], sum(d["drops"].values()), d["max_queue_depth"],
         d["p50_us"], d["p99_us"], d["p999_us"]]
        for d in result.per_shard
    ]
    print(format_table(
        ["shard", "ops", "drops", "max_q", "p50_us", "p99_us", "p999_us"],
        rows))
    drops = ", ".join(f"{k}={v}" for k, v in result.drops.items()) or "none"
    print(
        f"\ncluster: {store_name} shards={args.shards} "
        f"placement={router.placement.name}\n"
        f"completed {result.completed}/{result.offered} "
        f"({result.throughput_kiops:.1f} KIOPS over "
        f"{result.duration_s * 1e3:.2f} sim-ms), drops: {drops}, "
        f"rebalances: {len(result.rebalances)}"
    )
    if replication is not None:
        stats = cluster.stats
        lags = ", ".join(
            f"g{g.group_id}={g.lag()}" for g in cluster.groups
        )
        print(
            f"replication: K={args.followers} ack={args.ack} "
            f"read={args.read_policy}, "
            f"elections={int(stats.get('repl.elections'))}, "
            f"lag_peak={int(stats.get('repl.lag_peak'))} records, "
            f"final lag: {lags}"
        )
    if args.metrics:
        path = pathlib.Path(args.metrics)
        path.write_text(cluster_metrics_json(cluster, router, result))
        print(f"# metrics: {path}", file=sys.stderr)
    if live_recorders is not None:
        cluster.detach_tracing()
        if args.openmetrics:
            from repro.cluster import cluster_openmetrics_text
            from repro.obs import write_artifact

            write_artifact(
                args.openmetrics,
                cluster_openmetrics_text(cluster, live_recorders),
            )
            print(f"# openmetrics: {args.openmetrics}", file=sys.stderr)
        if args.flight_dir:
            labels = [str(s.shard_id) for s in cluster.shards]
            written = _write_flight_dumps(
                live_recorders, labels, args.flight_dir
            )
            print(f"# flight dumps: {len(written)} in {args.flight_dir}",
                  file=sys.stderr)
    if recorders is not None:
        cluster.detach_tracing()
        if args.trace:
            write_cluster_trace(cluster, recorders, args.trace)
            events = sum(len(r) for r in recorders)
            print(f"# trace: {args.trace} ({events} events)", file=sys.stderr)
        if args.analyze:
            from repro.obs.analyze import (
                analysis_json,
                analyze_cluster,
                render_cluster_analysis,
            )

            doc = analyze_cluster(cluster, recorders)
            if args.analyze_json:
                from repro.obs import write_artifact

                path = write_artifact(args.analyze_json, analysis_json(doc))
                print(f"# analysis: {path}", file=sys.stderr)
            print()
            print(render_cluster_analysis(doc), end="")
    return 0


def cmd_chaos(args) -> int:
    """Seeded kill/restart chaos scenarios with post-run state audits."""
    from repro.replication import chaos_report_json, run_chaos

    store_name = args.store[0]
    if len(args.store) > 1:
        print("chaos drives one store per run; pick one with --store",
              file=sys.stderr)
        return 2
    seeds = _parse_seeds(args.seeds)
    reports = []
    rows = []
    all_ok = True
    trace_paths = []
    for seed in seeds:
        trace = None
        if args.trace:
            trace = str(_trace_path(args.trace, f"s{seed}", len(seeds) > 1))
            trace_paths.append(trace)
        report = run_chaos(
            store_name,
            seed=seed,
            shards=args.shards,
            followers=args.followers,
            ops=args.ops,
            ack_policy=args.ack,
            read_policy=args.read_policy,
            trace=trace,
        )
        reports.append(report)
        all_ok = all_ok and report["ok"]
        checks = report["checks"]
        rows.append([
            seed,
            report["completed"],
            int(report["kills"]),
            int(report["restarts"]),
            int(report["elections"]),
            int(report["acked_lost"]),
            "yes" if checks["oracle_match"] else "NO",
            "yes" if checks["followers_match"] else "NO",
            "PASS" if report["ok"] else "FAIL",
        ])
    print(format_table(
        ["seed", "completed", "kills", "restarts", "elections",
         "acked_lost", "oracle", "followers", "verdict"], rows))
    for path in trace_paths:
        print(f"# trace: {path}", file=sys.stderr)
    print(
        f"\nchaos: {store_name} shards={args.shards} K={args.followers} "
        f"ack={args.ack} read={args.read_policy} -- "
        f"{'all scenarios PASS' if all_ok else 'FAILURES above'}"
    )
    if args.report:
        doc = {
            "schema": 1,
            "store": store_name,
            "shards": args.shards,
            "followers": args.followers,
            "ack": args.ack,
            "read_policy": args.read_policy,
            "reports": reports,
        }
        path = pathlib.Path(args.report)
        path.write_text(chaos_report_json(doc))
        print(f"# chaos report: {path}", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_check(args) -> int:
    """Static analysis: determinism lint, dead names and unset options."""
    from repro.check import check_contracts, render_findings, run_lint

    failed = False
    findings = []
    if not args.skip_lint:
        root = pathlib.Path(args.path) if args.path else None
        findings.extend(run_lint(root))
    if not args.skip_contracts:
        findings.extend(check_contracts())
    if findings:
        print(render_findings(findings))
        failed = args.strict or any(f.severity == "error" for f in findings)
    print(f"check: {len(findings)} finding(s)")
    return 1 if failed else 0


def cmd_info(args) -> int:
    from repro.cluster import PLACEMENT_POLICIES

    print("stores:", ", ".join(STORE_NAMES))
    print("placement policies:", ", ".join(sorted(PLACEMENT_POLICIES)))
    rows = []
    for profile in (DRAM_PROFILE, OPTANE_NVM_PROFILE, NVME_SSD_PROFILE):
        rows.append(
            [profile.name, profile.read_latency * 1e9, profile.write_latency * 1e9,
             profile.seq_read_bw / 2**30, profile.seq_write_bw / 2**30,
             profile.rand_write_bw / 2**30]
        )
    print(format_table(
        ["device", "rd_lat_ns", "wr_lat_ns", "seq_rd_GBps", "seq_wr_GBps",
         "rand_wr_GBps"], rows))
    scale = default_scale()
    print(f"\nbench scale: memtable={scale.memtable_bytes >> 10}KB "
          f"dataset={scale.dataset_bytes >> 20}MB value={scale.value_size}B")
    return 0


def cmd_diff(args) -> int:
    """Diff two ``repro analyze --json`` documents (docs/observability.md)."""
    import json

    from repro.obs.analyze import diff_analysis, diff_json, render_diff

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
        path = pathlib.Path(args.out)
        path.write_text(diff_json(report))
        print(f"# diff report: {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MioDB reproduction workload runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "dbbench", help="LevelDB-style microbenchmark",
        parents=[_common_flags(fsync=True, batch=True)],
    )
    p.add_argument("--mode", choices=["fillrandom", "fillseq"],
                   default="fillrandom")
    p.add_argument("--n", type=_nonnegative_int, default=None,
                   help="records to write")
    p.add_argument("--reads", type=_nonnegative_int, default=2000)
    p.set_defaults(func=cmd_dbbench)

    p = sub.add_parser(
        "ycsb", help="YCSB load + workloads",
        parents=[_common_flags(batch=True)],
    )
    p.add_argument("--workloads", type=_workloads_arg, default="A,B,C")
    p.add_argument("--records", type=_nonnegative_int, default=None)
    p.add_argument("--ops", type=_nonnegative_int, default=1000)
    p.set_defaults(func=cmd_ycsb)

    p = sub.add_parser(
        "compare", help="headline store comparison", parents=[_common_flags()]
    )
    p.add_argument("--analyze", action="store_true",
                   help="also print per-store latency attribution reports")
    p.set_defaults(func=cmd_compare, store=list(STORE_NAMES))

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

    p = sub.add_parser(
        "cluster", help="sharded serving layer: routed load + backpressure",
        parents=[_common_flags(fsync=True), _replication_flags(0), _live_flags()],
    )
    p.add_argument("--shards", type=_positive_int, default=4,
                   help="number of shard stores on the shared clock")
    p.add_argument("--placement", choices=["hash-ring", "range"],
                   default="hash-ring")
    p.add_argument("--clients", type=_positive_int, default=4,
                   help="independent load-generating clients")
    p.add_argument("--ops", type=_nonnegative_int, default=1000,
                   help="ops per client")
    p.add_argument("--rate", type=_rate, default=0.0, metavar="OPS_PER_S",
                   help="open-loop arrival rate per client "
                        "(<= 0 means closed-loop)")
    p.add_argument("--theta", type=_zipf_theta, default=0.0,
                   help="zipfian skew in [0, 1); 0 means uniform keys")
    p.add_argument("--read-frac", type=_fraction, default=0.5)
    p.add_argument("--key-space", type=_positive_int, default=10000)
    p.add_argument("--preload", type=_nonnegative_int, default=2000,
                   help="keys written through the router before driving")
    p.add_argument("--max-queue-depth", type=_positive_int, default=64)
    p.add_argument("--admission", choices=["reject", "defer"],
                   default="reject")
    p.add_argument("--rebalance-every", type=_nonnegative_int, default=0,
                   metavar="N",
                   help="hot-shard check every N completions (0 = off)")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="write the deterministic cluster metrics JSON")
    p.add_argument("--analyze", action="store_true",
                   help="print the router-merged latency attribution report")
    p.add_argument("--analyze-json", default=None, metavar="FILE",
                   help="also write the cluster analysis document (JSON)")
    p.add_argument("--live-refresh-us", type=_nonnegative_float, default=0.0,
                   help="dashboard refresh cadence in simulated us "
                        "(0 = 4x the aggregation window)")
    p.set_defaults(func=cmd_cluster, value_size=256)

    p = sub.add_parser(
        "chaos",
        help="seeded replica kill/restart scenarios with state audits",
        parents=[_replication_flags(2)],
    )
    p.add_argument(
        "--store", type=_stores_arg, default=["miodb"],
        help="store to replicate (one per run)",
    )
    p.add_argument("--seeds", type=_seeds_arg, default="1",
                   metavar="S1,S2,...", help="comma list of scenario seeds")
    p.add_argument("--shards", type=_positive_int, default=2)
    p.add_argument("--ops", type=_chaos_ops, default=400,
                   help="client ops per scenario (>= 10)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the deterministic chaos report JSON")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="run under causal tracing and write the merged "
                        "trace (per-seed suffixes with multiple seeds); "
                        "adds failover timelines to the report")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "check", help="determinism lint, dead names and unset options"
    )
    p.add_argument("--strict", action="store_true",
                   help="fail on any finding, warnings included (CI gate)")
    p.add_argument("--skip-lint", action="store_true")
    p.add_argument("--skip-contracts", action="store_true")
    p.add_argument("--path", type=_directory_arg, default=None, metavar="DIR",
                   help="lint this directory instead of src/repro")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("info", help="stores, device profiles, scaling")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "diff", help="differential analysis between two analyze documents"
    )
    p.add_argument("a", help="analysis JSON path")
    p.add_argument("b", help="analysis JSON path")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the full diff document as JSON")
    p.set_defaults(func=cmd_diff)

    return parser


def _refuse_unreplicable(parser, names) -> None:
    """``parser.error`` naming the first store a replica group refuses."""
    from repro.replication.group import replication_refusal

    for name in names:
        reason = replication_refusal(make_store(name)[0])
        if reason is not None:
            parser.error(
                f"argument --store: expected a replicable store, got "
                f"{name!r} (cannot be replicated: {reason})"
            )


#: Flags that do nothing without another one (``dest`` -> the one it needs).
_NEEDS = {
    "openmetrics": "live", "flight_dir": "live", "slo_threshold_us": "live",
    "stall_alert_us": "live", "live_refresh_us": "live", "analyze_json": "analyze",
}


def _refuse_idle_flags(parser, args) -> None:
    """``parser.error`` for a flag that does nothing without its partner,
    and for ``--live`` beside the full tracing it replaces."""
    for dest, needed in _NEEDS.items():
        value = getattr(args, dest, None)
        if value and not getattr(args, needed):
            parser.error(f"argument --{dest.replace('_', '-')}: expected with "
                         f"--{needed}, got {str(value)!r} without it")
    if getattr(args, "live", False):
        for dest in ("trace", "analyze"):
            if getattr(args, dest, None):
                parser.error(f"argument --live: expected no full tracing, "
                             f"got '--{dest}'")


# repro: allow[OPT001] tests drive the CLI in-process with an argv list
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _refuse_idle_flags(parser, args)
    if args.func is cmd_chaos or getattr(args, "followers", 0) > 0:
        _refuse_unreplicable(parser, args.store)
    return args.func(args)
