"""The paper's benchmark commands: ``dbbench``, ``ycsb``, ``compare``, ``info``."""

from repro.bench import STORE_NAMES, default_scale, format_table, make_store
from repro.cli import (
    _common_flags,
    _nonnegative_int,
    _positive_int,
    _text_arg,
    _trace_path,
    _wrote,
)
from repro.mem.profiles import DRAM_PROFILE, NVME_SSD_PROFILE, OPTANE_NVM_PROFILE
from repro.workloads import (
    YCSB_WORKLOADS,
    fill_random,
    fill_seq,
    load_phase,
    read_random,
    read_seq,
    run_workload,
)

_workloads_arg = _text_arg(
    lambda value: all(w.strip().upper() in YCSB_WORKLOADS for w in value.split(",")),
    f"a comma list of YCSB workloads ({', '.join(sorted(YCSB_WORKLOADS))})",
)


def _finish_trace(recorder, args, store_name: str, multi: bool) -> None:
    """Detach ``recorder`` (if any) and write it when ``--trace`` was given."""
    from repro.obs import chrome_trace_json

    if recorder is not None:
        recorder.detach()
    if args.trace:
        _wrote("trace", _trace_path(args.trace, store_name, multi),
               chrome_trace_json(recorder, store_name),
               note=f" ({len(recorder)} events)")


def _batch_arg(args):
    """``--batch-size 0`` means the per-op loop (no coalescing)."""
    return args.batch_size if args.batch_size > 0 else None


def cmd_dbbench(args) -> int:
    scale = default_scale()
    n = scale.records_for(args.value_size) if args.n is None else args.n
    batch = _batch_arg(args)
    rows = []
    multi = len(args.store) > 1
    for name in args.store:
        store, system = make_store(
            name, scale, ssd=args.ssd, fsync_policy=args.fsync_policy
        )
        recorder = system.attach_tracing() if args.trace else None
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
        recorder = system.attach_tracing() if args.trace else None
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
        traced = args.trace or args.analyze
        recorder = system.attach_tracing() if traced else None
        w = fill_random(store, n, args.value_size, seed=args.seed)
        store.quiesce()
        r = read_random(store, min(1000, n), n)
        _finish_trace(recorder, args, name, multi)
        if args.analyze:
            from repro.obs.analyze import analyze_run, render_analysis

            doc = analyze_run(recorder, system, name)
            analyses.append(render_analysis(doc, profile=False))
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


def cmd_info(args) -> int:
    print("stores:", ", ".join(STORE_NAMES))
    rows = []
    for p in (DRAM_PROFILE, OPTANE_NVM_PROFILE, NVME_SSD_PROFILE):
        # repro: allow[BND001] -- `repro info` prints the profiles; it prices nothing
        prices = p.read_latency, p.write_latency, p.seq_read_bw, p.seq_write_bw, p.rand_write_bw
        rows.append([p.name, *(s * 1e9 for s in prices[:2]), *(b / 2**30 for b in prices[2:])])
    print(format_table(
        ["device", "rd_lat_ns", "wr_lat_ns", "seq_rd_GBps", "seq_wr_GBps",
         "rand_wr_GBps"], rows))
    scale = default_scale()
    print(f"\nbench scale: memtable={scale.memtable_bytes >> 10}KB "
          f"dataset={scale.dataset_bytes >> 20}MB value={scale.value_size}B")
    return 0


def add_parsers(sub) -> None:
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
    p.add_argument("--records", type=_positive_int, default=None)
    p.add_argument("--ops", type=_nonnegative_int, default=1000)
    p.set_defaults(func=cmd_ycsb)

    p = sub.add_parser(
        "compare", help="headline store comparison", parents=[_common_flags()]
    )
    p.add_argument("--analyze", action="store_true",
                   help="also print per-store latency attribution reports")
    p.set_defaults(func=cmd_compare, store=list(STORE_NAMES))


def add_info_parser(sub) -> None:
    p = sub.add_parser("info", help="stores, device profiles, scaling")
    p.set_defaults(func=cmd_info)
