"""The serving-layer commands: ``cluster`` (routed load) and ``chaos``
(seeded replica kills with state audits).  Each drives one store."""

import argparse
import math
from functools import partial
from typing import List

from repro.bench import format_table
from repro.cli import (
    _common_flags,
    _flags,
    _live_flags,
    _live_overrides,
    _nonnegative_float,
    _nonnegative_int,
    _number_arg,
    _positive_int,
    _stores_arg,
    _text_arg,
    _trace_path,
    _wrote,
    _wrote_flight_dumps,
)
from repro.obs.export import document_json

_fraction = _number_arg(float, lambda x: 0 <= x <= 1, "a fraction in [0, 1]")
_rate = _number_arg(
    float, lambda x: not math.isnan(x), "a number (<= 0 means closed-loop)"
)
_zipf_theta = _number_arg(float, lambda x: 0 <= x < 1, "a number in [0, 1)")
#: ``ChaosSchedule`` keeps kills inside the middle 80 % of the run.
_chaos_ops = _number_arg(int, lambda n: n >= 10, "an integer >= 10")


def _parse_seeds(value: str) -> List[int]:
    return [int(s) for s in value.split(",") if s.strip()]


_seeds_arg = _text_arg(_parse_seeds, "a comma list of integer seeds")


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


def cmd_cluster(args) -> int:
    """Drive a sharded cluster: routed multi-client load, optional rebalance."""
    from repro.cluster import (
        AdmissionControl,
        ClientSpec,
        Cluster,
        ShardRouter,
        cluster_metrics_json,
        cluster_trace_json,
        run_cluster,
    )
    from repro.kvstore.values import SizedValue
    from repro.workloads.keys import key_for

    store_name = args.store[0]
    replication = None
    if args.followers > 0:
        from repro.replication import ReplicationConfig

        replication = ReplicationConfig(
            followers=args.followers, ack_policy=args.ack,
            read_policy=args.read_policy,
        )
    cluster = Cluster(
        store_name, n_shards=args.shards, ssd=args.ssd,
        replication=replication, fsync_policy=args.fsync_policy,
    )
    router = ShardRouter(
        cluster, placement_name=args.placement, key_space=args.key_space
    )
    traced = args.trace or args.analyze
    recorders = cluster.attach_tracing() if traced else None
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
            n_ops=args.ops, rate_per_s=rate, key_space=args.key_space,
            read_fraction=args.read_frac, theta=theta,
            value_size=args.value_size, seed=args.seed + i,
        )
        for i in range(args.clients)
    ]
    admission = AdmissionControl(
        max_queue_depth=args.max_queue_depth, policy=args.admission
    )
    sessions = None if replication is None else [router.session() for __ in clients]
    result = run_cluster(
        router, clients, admission=admission,
        rebalance_every=args.rebalance_every, dashboard=dashboard,
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
        lags = ", ".join(f"g{g.group_id}={g.lag()}" for g in cluster.groups)
        print(
            f"replication: K={args.followers} ack={args.ack} "
            f"read={args.read_policy}, "
            f"elections={int(stats.get('repl.elections'))}, "
            f"lag_peak={int(stats.get('repl.lag_peak'))} records, "
            f"final lag: {lags}"
        )
    if args.metrics:
        _wrote("metrics", args.metrics,
               cluster_metrics_json(cluster, router, result))
    if live_recorders is not None:
        cluster.detach_tracing()
        if args.openmetrics:
            from repro.cluster import cluster_openmetrics_text

            _wrote("openmetrics", args.openmetrics,
                   cluster_openmetrics_text(cluster, live_recorders))
        if args.flight_dir:
            labels = [str(s.shard_id) for s in cluster.shards]
            _wrote_flight_dumps(live_recorders, labels, args.flight_dir)
    if recorders is not None:
        cluster.detach_tracing()
        if args.trace:
            events = sum(len(r) for r in recorders)
            _wrote("trace", args.trace, cluster_trace_json(cluster, recorders),
                   note=f" ({events} events)")
        if args.analyze:
            from repro.obs.analyze import analyze_cluster, render_cluster_analysis

            doc = analyze_cluster(cluster, recorders)
            if args.analyze_json:
                _wrote("analysis", args.analyze_json, document_json(doc))
            print()
            print(render_cluster_analysis(doc), end="")
    return 0


def cmd_chaos(args) -> int:
    """Seeded kill/restart chaos scenarios with post-run state audits."""
    from repro.replication import run_chaos

    store_name = args.store[0]
    seeds = _parse_seeds(args.seeds)
    reports = []
    rows = []
    for seed in seeds:
        trace = None
        if args.trace:
            path = _trace_path(args.trace, f"s{seed}", len(seeds) > 1)
            trace = partial(_wrote, "trace", path)
        report = run_chaos(
            store_name, seed=seed, shards=args.shards,
            followers=args.followers, ops=args.ops, ack_policy=args.ack,
            read_policy=args.read_policy, trace=trace,
        )
        reports.append(report)
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
    all_ok = all(report["ok"] for report in reports)
    print(
        f"\nchaos: {store_name} shards={args.shards} K={args.followers} "
        f"ack={args.ack} read={args.read_policy} -- "
        f"{'all scenarios PASS' if all_ok else 'FAILURES above'}"
    )
    if args.report:
        doc = {
            "schema": 1, "store": store_name, "shards": args.shards,
            "followers": args.followers, "ack": args.ack,
            "read_policy": args.read_policy, "reports": reports,
        }
        _wrote("chaos report", args.report, document_json(doc))
    return 0 if all_ok else 1


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "cluster", help="sharded serving layer: routed load + backpressure",
        parents=[_common_flags(fsync=True, value_type=_nonnegative_int),
                 _replication_flags(0), _live_flags()],
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
