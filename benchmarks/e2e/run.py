#!/usr/bin/env python3
"""Host-time benchmark of the simulator: one command.

    python3 benchmarks/e2e/run.py --workload store-get --seed 3 --seconds 8 --trace 0
    python3 benchmarks/e2e/run.py --workload store-get --seed 3 --seconds 8 --trace 1
    python3 benchmarks/e2e/run.py                # every workload, rounds interleaved
    python3 benchmarks/e2e/run.py --aa           # two sets of the same tree vs the bounds
    python3 benchmarks/e2e/run.py --selftest-sensitivity
    python3 benchmarks/e2e/run.py --smoke        # scale 1/50, both modes, < 20 s

Every end-to-end metric is measured on the host (times speed-calibrated
against a reference kernel, see calib.py); the simulated clock appears
only as exact per-layer counts and as a determinism check (README.md).
Each round is a fresh interpreter (``child.py``); this file only spawns
rounds, checks them and reports medians, and imports nothing from
``repro``.

With ``--workload`` the last line of stdout is one JSON object:
``--trace 0`` carries the end-to-end metrics, ``--trace 1`` the
per-layer ledger.  A failed verify prints no numbers and exits 1.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from ledger import LAYERS, P99_CALLS, PHASES, STORE_CALLS  # noqa: E402

#: The common factor every size in README.md's workload table is shrunk
#: by, so that the driver's runs fit its time cap.  Never per workload.
COMMON_SCALE = 0.35
#: The verify pass runs at this fraction of the measured size.
VERIFY_FRACTION = 0.1
SMOKE_SCALE = 0.02
MIN_ROUNDS = 3
DELAY_US = 2.0
#: Round ``r`` of a command draws its inputs from ``seed * DRAWS + r``.
DRAWS = 64

WORKLOADS = (
    "store-write", "store-get", "store-scan", "baselines-ycsb",
    "cluster-k0", "cluster-k2", "obs-trace",
)

#: name -> (unit, better); bounds live in BENCHMARK.json.
END_TO_END = {
    "host_kops": ("kops/s", "higher"),
    "cpu_us_per_op": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

MODEL_COUNTS = {
    "sim.elapsed_s": "s", "sim.kiops": "kops/s", "sim.p50_us": "us",
    "sim.p99_us": "us", "sim.p999_us": "us", "sim.jobs_run": "count",
    "mem.nvm.bytes_written": "B", "mem.nvm.write_ops": "count",
    "mem.write_amp": "ratio", "mem.space_amp": "ratio",
    "kvstore.user_bytes": "B", "core.flush.count": "count",
    "core.flush.bytes": "B", "core.compact.count": "count",
    "core.compact.ptr_writes": "count", "core.compact.lazy_count": "count",
    "core.stall.interval_s": "s", "core.levels.tables_at_start": "count",
    "cluster.routed_ops": "count", "cluster.deferred": "count",
    "cluster.drops": "count", "replication.shipped_records": "count",
    "replication.shipped_bytes": "B", "replication.applied_records": "count",
    "replication.ack_wait_s": "s", "obs.events": "count",
    "obs.live.ops_retained": "count",
}

HARNESS = {
    "harness.timed_share": "ratio", "harness.cpu_share": "ratio",
    "harness.span_overhead_pct": "%", "harness.profile_slowdown_x": "x",
    "harness.rounds": "count", "harness.gc_collections": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for phase in PHASES:
        units[f"phase.{phase}.busy_s"] = "s"
        units[f"phase.{phase}.ops"] = "count"
    for call in STORE_CALLS:
        units[f"kvstore.{call}.busy_s"] = "s"
        units[f"kvstore.{call}.calls"] = "count"
        if call in P99_CALLS:
            units[f"kvstore.{call}.p99_us"] = "us"
    units["workloads.span_self_s"] = "s"
    for layer in LAYERS + ("other",):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(MODEL_COUNTS)
    units.update(HARNESS)
    return units


class BenchmarkFailure(Exception):
    """Verify, the determinism guard or a child process failed."""


# ------------------------------------------------------------------ rounds


def spawn(workload: str, seed: int, scale: float, mode: str,
          draw: int = 0, out=None, delay_us: float = 0.0) -> dict:
    """Run one child round to completion; returns its document.

    The same op stream in another key order moves host time by about
    5 % (memory layout), which is input luck and not program speed.  So
    the end-to-end rounds of a command each take another ``draw`` of
    inputs from ``--seed``, and the reported median is over draws as
    well as over interpreters.  Rounds that must agree bit-for-bit (the
    traced run, the two sets of ``--aa``) share their draw.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    inputs = seed * DRAWS + draw % DRAWS
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(inputs), "--scale", repr(scale), "--mode", mode,
        "--delay-us", repr(delay_us),
    ]
    if out is not None:
        command += ["--out", str(out)]
    t0 = time.perf_counter()
    # perf_counter is CLOCK_MONOTONIC: one timeline for parent and child,
    # so set-up time includes the interpreter's own start.
    done = subprocess.run(
        command + ["--t0", repr(t0)], env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchmarkFailure(f"{workload} {mode} round exited {done.returncode}")
    doc = json.loads(done.stdout.splitlines()[-1])
    doc["round_wall_s"] = wall
    doc["inputs"] = inputs
    return doc


def verify(workload: str, seed: int, scale: float) -> dict:
    """The untimed correctness pass; raises unless everything agreed."""
    doc = spawn(workload, seed, scale * VERIFY_FRACTION, "verify")
    if doc["failed"]:
        raise BenchmarkFailure(
            f"{workload} seed {seed}: verify failed {doc['failed']} of "
            f"{doc['attempted']}: " + "; ".join(doc["failures"])
        )
    return doc


def check_determinism(workload: str, rounds, key: str = "counts") -> None:
    """Rounds with the same inputs must agree bit-for-bit on every model
    count (``key="layers"``: on every profile call count)."""
    first = {}
    for doc in rounds:
        a, b = first.setdefault(doc["inputs"], doc)[key], doc[key]
        moved = sorted(
            name for name in a.keys() & b.keys()
            if a[name] != b[name] and not name.endswith(".self_s")
        )
        if moved:
            raise BenchmarkFailure(
                f"{workload}: not deterministic across rounds: " + ", ".join(
                    f"{name} {a[name]!r} != {b[name]!r}" for name in moved[:5])
            )


def end_to_end(doc: dict) -> dict:
    """The four end-to-end metrics of one plain round."""
    return {
        "host_kops": doc["ops"] / doc["timed_s"] / 1e3,
        "cpu_us_per_op": doc["cpu_s"] / doc["ops"] * 1e6,
        "peak_rss_mb": doc["peak_rss_mb"],
        "setup_s": doc["setup_s"],
    }


def summarize(rounds) -> dict:
    """Median and quartiles of each end-to-end metric over ``rounds``."""
    out = {}
    for name in END_TO_END:
        values = [end_to_end(doc)[name] for doc in rounds]
        q1, __, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "rounds": len(values)}
    return out


def measure(workloads, seed: int, scale: float, seconds: float) -> dict:
    """Plain rounds, interleaved round-robin across ``workloads``.

    Each workload keeps getting rounds until its timed regions add up
    to ``seconds`` (and it has at least ``MIN_ROUNDS``), so drift hits
    all workloads equally and a slower box runs fewer rounds, not a
    longer command.
    """
    rounds = {name: [] for name in workloads}
    pending = list(workloads)
    while pending:
        for name in list(pending):
            rounds[name].append(
                spawn(name, seed, scale, "plain", draw=len(rounds[name])))
            timed = sum(doc["raw_timed_s"] for doc in rounds[name])
            if len(rounds[name]) >= MIN_ROUNDS and timed >= seconds:
                pending.remove(name)
    return rounds


def print_end_to_end(workload: str, summary: dict) -> None:
    for name, (unit, __) in END_TO_END.items():
        row = summary[name]
        print(
            f"{workload:<15} {name:<14} {row['median']:>12.4f} {unit:<7} "
            f"q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  rounds {row['rounds']}"
        )


# ------------------------------------------------------- driver contract


def run_end_to_end(workload: str, seed: int, scale: float, seconds: float,
                   checked: dict) -> dict:
    """The end-to-end metrics of one workload; ``checked`` is its verify."""
    began = time.perf_counter()
    rounds = measure([workload], seed, scale, seconds)[workload]
    summary = summarize(rounds)
    print_end_to_end(workload, summary)
    timed = sum(doc["raw_timed_s"] for doc in rounds)
    wall = checked["round_wall_s"] + time.perf_counter() - began
    print(f"{workload:<15} timed share of the command (verify included) "
          f"{timed / wall:.3f}")
    return {
        "correct": True,
        "attempted": checked["attempted"] + sum(doc["ops"] for doc in rounds),
        "failed": sum(doc["failed"] for doc in rounds),
        "metrics": {
            name: {"value": summary[name]["median"], "unit": unit}
            for name, (unit, __) in END_TO_END.items()
        },
    }


def run_traced(workload: str, seed: int, scale: float, out, checked: dict) -> dict:
    """The per-layer ledger: one plain, one spans and two profile rounds.

    Never mixed with the end-to-end rounds.  The second profile round
    exists for the determinism guard: ``<layer>.calls`` must repeat.
    """
    plain = spawn(workload, seed, scale, "plain")
    spans = spawn(workload, seed, scale, "spans", out=out)
    profiles = [spawn(workload, seed, scale, "profile", out=out) for __ in range(2)]
    rounds = [plain, spans] + profiles
    check_determinism(workload, rounds)
    check_determinism(workload, profiles, key="layers")
    profile = profiles[0]
    values = dict(spans["spans"])
    values.update(profile["layers"])
    values.update(spans["counts"])
    values.update({
        "harness.timed_share": plain["raw_timed_s"] / plain["round_wall_s"],
        "harness.cpu_share": plain["cpu_s"] / plain["timed_s"],
        "harness.span_overhead_pct":
            (spans["timed_s"] / plain["timed_s"] - 1.0) * 100.0,
        # Raw: the profiler slows the reference kernel with the program
        # (the interpreter drops to its traced dispatch), so calibrated
        # time would hide most of it.
        "harness.profile_slowdown_x":
            profile["raw_timed_s"] / plain["raw_timed_s"],
        "harness.rounds": len(rounds),
        "harness.gc_collections": plain["gc_collections"],
    })
    ledger = sum(profile["layers"][f"{layer}.self_s"] for layer in LAYERS + ("other",))
    print(f"{workload:<15} ledger covers {ledger / profile['raw_timed_s']:.4f} "
          f"of the profiled region")
    units = per_layer_units()
    for name, unit in units.items():
        print(f"{workload:<15} {name:<32} {values[name]:>16.6f} {unit}")
    return {
        "correct": True,
        "attempted": checked["attempted"] + sum(doc["ops"] for doc in rounds),
        "failed": sum(doc["failed"] for doc in rounds),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


# ------------------------------------------------------------ human modes


def bounds() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row["bound"] for row in doc["end_to_end"]}


def worse_by(name: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if END_TO_END[name][1] == "higher":
        return (base - other) / base
    return (other - base) / base


def run_all(seed: int, scale: float, seconds: float) -> int:
    for name in WORKLOADS:
        verify(name, seed, scale)
    rounds = measure(WORKLOADS, seed, scale, seconds)
    for name in WORKLOADS:
        print_end_to_end(name, summarize(rounds[name]))
    return 0


def run_aa(seed: int, scale: float, seconds: float) -> int:
    """Two interleaved sets of rounds of the same tree, against the bounds."""
    sets = ({name: [] for name in WORKLOADS}, {name: [] for name in WORKLOADS})
    n_rounds = max(MIN_ROUNDS, int(seconds) // 2)
    for index in range(n_rounds):
        for name in WORKLOADS:
            # Alternate which set goes first, so neither owns the warm slot.
            for which in ((0, 1) if index % 2 == 0 else (1, 0)):
                sets[which][name].append(
                    spawn(name, seed, scale, "plain", draw=index))
    limit = bounds()
    failed = 0
    for name in WORKLOADS:
        check_determinism(name, sets[0][name] + sets[1][name])
        a, b = summarize(sets[0][name]), summarize(sets[1][name])
        for metric in END_TO_END:
            gap = max(worse_by(metric, a[metric]["median"], b[metric]["median"]),
                      worse_by(metric, b[metric]["median"], a[metric]["median"]))
            spread = (a[metric]["q3"] - a[metric]["q1"]) / a[metric]["median"]
            ok = gap <= limit[metric]
            failed += not ok
            print(
                f"{name:<15} {metric:<14} A {a[metric]['median']:.4f}  "
                f"B {b[metric]['median']:.4f}  gap {gap:.4f}  iqr/median "
                f"{spread:.4f}  bound {limit[metric]:.2f}  "
                f"{'ok' if ok else 'OUTSIDE BOUND'}"
            )
    return 1 if failed else 0


def run_sensitivity(seed: int, scale: float, seconds: float) -> int:
    """Slow the program from outside by a known amount; the end-to-end
    metrics must move by that amount and the model counts not at all."""
    workload = "store-get"
    base, slow = [], []
    for index in range(max(MIN_ROUNDS, int(seconds) // 2)):
        base.append(spawn(workload, seed, scale, "delay", draw=index))
        slow.append(
            spawn(workload, seed, scale, "delay", draw=index, delay_us=DELAY_US))
    check_determinism(workload, base + slow)
    a, b = summarize(base), summarize(slow)
    cpu_moved = b["cpu_us_per_op"]["median"] - a["cpu_us_per_op"]["median"]
    kops = b["host_kops"]["median"]
    predicted = 1.0 / (1.0 / a["host_kops"]["median"] + DELAY_US * 1e-3)
    print(f"{workload}: +{DELAY_US} us of calibrated work per op behind the "
          f"store proxy")
    print(f"  cpu_us_per_op {a['cpu_us_per_op']['median']:.4f} -> "
          f"{b['cpu_us_per_op']['median']:.4f}  (moved {cpu_moved:.4f} us, "
          f"predicted {DELAY_US:.1f})")
    print(f"  host_kops     {a['host_kops']['median']:.4f} -> {kops:.4f}  "
          f"(predicted {predicted:.4f})")
    print("  model counts identical between the two sets, round for round")
    # The proxy's own loop and call add a little to the burnt work.
    ok = (0.9 * DELAY_US <= cpu_moved <= 1.5 * DELAY_US
          and abs(kops / predicted - 1.0) <= 0.08)
    print("sensitivity self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def run_smoke(seed: int, out) -> int:
    """Every workload, both modes, at a fiftieth of the size."""
    results = {}
    for name in WORKLOADS:
        checked = verify(name, seed, SMOKE_SCALE)
        results[name] = {
            "end_to_end": run_end_to_end(name, seed, SMOKE_SCALE, 0.0, checked),
            "per_layer": run_traced(name, seed, SMOKE_SCALE, out, checked),
        }
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="timed seconds to collect per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=COMMON_SCALE,
                        help="size factor; 1.0 is README.md's table")
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "e2e"),
                        help="where a traced run writes spans and ledger")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest-sensitivity", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the program is missing: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return run_smoke(args.seed, args.out)
        if args.aa:
            return run_aa(args.seed, args.scale, args.seconds)
        if args.selftest_sensitivity:
            return run_sensitivity(args.seed, args.scale, args.seconds)
        if args.workload is None:
            return run_all(args.seed, args.scale, args.seconds)
        checked = verify(args.workload, args.seed, args.scale)
        if args.trace:
            result = run_traced(
                args.workload, args.seed, args.scale, args.out, checked)
        else:
            result = run_end_to_end(
                args.workload, args.seed, args.scale, args.seconds, checked)
    except BenchmarkFailure as failure:
        print(f"run.py: {failure}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
