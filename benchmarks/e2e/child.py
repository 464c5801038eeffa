"""One round of one workload in a fresh interpreter.

``run.py`` spawns this once per round, so every round pays its own
imports, set-up and peak memory, and nothing warms up across rounds.
The last line of stdout is one JSON document.

Modes:

- ``plain``   -- the measured round: two marks around the region, no
  proxy, no profiler;
- ``spans``   -- same sizes behind :class:`ledger.SpanProxy`;
- ``profile`` -- same sizes under ``cProfile``;
- ``delay``   -- behind :class:`ledger.DelayProxy` (sensitivity self-test);
- ``verify``  -- behind :class:`ledger.ModelProxy`, then the workload's
  extra correctness checks.  Untimed.

Host time is speed-calibrated against a reference kernel sampled inside
this process for the whole life of the round (see ``calib.py``).
"""

import argparse
import cProfile
import gc
import json
import os
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

MODES = ("plain", "spans", "profile", "delay", "verify")


def pin_to_one_cpu() -> None:
    """Stay on one CPU so a migration never lands inside a region."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ----------------------------------------------------------- model counts
#
# Exact, read through public objects.  Everything here repeats
# bit-for-bit for a fixed seed; a speed-up PR must leave it identical.

_STAT_COUNTS = {
    "kvstore.user_bytes": "user.bytes_written",
    "core.flush.count": "flush.count",
    "core.flush.bytes": "flush.bytes",
    "core.compact.count": "compact.count",
    "core.compact.ptr_writes": "compact.ptr_writes",
    "core.compact.lazy_count": "compact.lazy_count",
    "core.stall.interval_s": "stall.interval_s",
    "obs.live.ops_retained": "live.ops_retained",
}

_CLUSTER_COUNTS = {
    "cluster.routed_ops": "cluster.routed_ops",
    "cluster.deferred": "cluster.deferred",
    "replication.shipped_records": "repl.shipped_records",
    "replication.shipped_bytes": "repl.shipped_bytes",
    "replication.applied_records": "repl.applied_records",
    "replication.ack_wait_s": "repl.ack_wait_s",
}


class ModelCounts:
    """Counter snapshot at the start of the region, deltas at its end."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.clocks = list({id(s.clock): s.clock for s in ctx.systems}.values())
        self.clock_start = [clock.now for clock in self.clocks]
        self.totals_start = self._totals()
        self.latency_start = [
            {kind: s.latency.count(kind) for kind in s.latency.kinds()}
            for s in ctx.systems
        ]
        self.tables_at_start = sum(
            len(level) for store in self._mio_stores() for level in store.levels
        )

    def _mio_stores(self):
        return [store for store in self.ctx.stores if store.name == "miodb"]

    def _totals(self) -> dict:
        ctx = self.ctx
        totals = {name: 0.0 for name in list(_STAT_COUNTS) + list(_CLUSTER_COUNTS)}
        for store, system in zip(ctx.stores, ctx.systems):
            for name, key in _STAT_COUNTS.items():
                # ``core`` is MioDB: a baseline's flushes are not its work.
                if name.startswith("core.") and store.name != "miodb":
                    continue
                totals[name] += system.stats.get(key)
        if ctx.cluster is not None:
            for name, key in _CLUSTER_COUNTS.items():
                totals[name] = ctx.cluster.stats.get(key)
        totals["sim.jobs_run"] = sum(
            worker.jobs_run for s in ctx.systems for worker in s.executor.workers
        )
        totals["mem.nvm.bytes_written"] = sum(s.nvm.bytes_written for s in ctx.systems)
        totals["mem.nvm.write_ops"] = sum(s.nvm.write_ops for s in ctx.systems)
        totals["persistent_bytes"] = sum(
            s.persistent_bytes_written() for s in ctx.systems
        )
        return totals

    def finish(self, ops: int, full: bool) -> dict:
        """The counts of the region just run.

        ``full`` adds ``mem.space_amp``, which walks every store's
        ``items()`` and so is left out of the measured rounds.
        """
        from repro.sim.latency import LatencyRecorder

        ctx = self.ctx
        end = self._totals()
        counts = {name: end[name] - self.totals_start[name] for name in end}
        persistent = counts.pop("persistent_bytes")
        user = counts["kvstore.user_bytes"]
        counts["mem.write_amp"] = persistent / user if user else 0.0
        elapsed = sum(
            clock.now - start for clock, start in zip(self.clocks, self.clock_start)
        )
        counts["sim.elapsed_s"] = elapsed
        counts["sim.kiops"] = ops / elapsed / 1e3 if elapsed else 0.0
        if ctx.cluster_results:
            response = ctx.cluster_results[-1].response
        else:
            window = LatencyRecorder()
            for system, start in zip(ctx.systems, self.latency_start):
                for kind in system.latency.kinds():
                    rows = system.latency.samples_since(kind, start.get(kind, 0))
                    for at, latency in rows:
                        window.record(kind, at, latency)
            response = window.summary()
        counts["sim.p50_us"] = response.p50 * 1e6
        counts["sim.p99_us"] = response.p99 * 1e6
        counts["sim.p999_us"] = response.p999 * 1e6
        counts["core.levels.tables_at_start"] = self.tables_at_start
        counts["cluster.drops"] = sum(r.dropped for r in ctx.cluster_results)
        counts["obs.events"] = sum(len(r.events) for r in ctx.recorders)
        if full:
            in_use = sum(s.nvm.bytes_in_use for s in ctx.systems)
            live = sum(
                len(key) + value.nbytes
                for store in ctx.stores
                for key, value in store.items()
            )
            counts["mem.space_amp"] = in_use / live if live else 0.0
        return counts


# ------------------------------------------------------------------ modes


def run_verify(name: str, ctx, phases, proxies) -> dict:
    """Run the phases behind the model, then every correctness check."""
    from workloads import EXTRA_CHECKS

    for __, __, fn in phases:
        fn()
    attempted = 0
    failures = []
    union = {}
    for proxy in proxies:
        attempted += proxy.attempted + len(proxy.model)
        failures += proxy.failures
        if dict(proxy._inner.items()) != proxy.model:
            failures.append(
                f"{type(proxy._inner).__name__}: final items() differs from the model"
            )
        union.update(proxy.model)
    if ctx.router is not None:
        attempted += len(union)
        if dict(ctx.router.items()) != union:
            failures.append("router: final items() differs from the model")
    for result in ctx.cluster_results:
        if result.dropped:
            failures.append(f"run_cluster shed {result.dropped} ops: {result.drops}")
    extra = EXTRA_CHECKS.get(name)
    if extra is not None:
        extra(ctx)
    return {
        "attempted": attempted + ctx.checked,
        "failed": len(failures) + len(ctx.failures),
        "failures": failures + ctx.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's perf_counter() just before the spawn")
    parser.add_argument("--delay-us", type=float, default=0.0)
    parser.add_argument("--out", default=None,
                        help="directory for spans/ledger documents")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import calib

    # Started before the program is imported, so set-up is calibrated too.
    sampler = calib.Sampler()
    sampler.start()
    import ledger
    from workloads import WORKLOADS, Ctx

    spans = ledger.Spans(args.workload, sampler.wall)
    proxies = []
    burn_per_op = int(
        args.delay_us * 1e-6 / calib.NOMINAL_S * calib.KERNEL_ITERATIONS)

    def wrap(inner):
        if args.mode == "spans":
            return ledger.SpanProxy(inner, spans)
        if args.mode == "delay":
            return ledger.DelayProxy(inner, calib.reference_kernel, burn_per_op)
        if args.mode == "verify":
            proxies.append(ledger.ModelProxy(inner))
            return proxies[-1]
        return inner

    ctx = Ctx(args.seed, args.scale, wrap)
    phases = WORKLOADS[args.workload](ctx)
    if args.mode == "verify":
        sampler.stop()
        print(json.dumps(run_verify(args.workload, ctx, phases, proxies)))
        return 0

    counts = ModelCounts(ctx)
    profiler = cProfile.Profile() if args.mode == "profile" else None
    ops = sum(n for __, n, __ in phases)
    gc.collect()
    gc_before = sum(gen["collections"] for gen in gc.get_stats())
    # The region: one mark (wall, CPU and a reference sample) either
    # side, nothing else of ours.
    begin = sampler.mark()
    if profiler is not None:
        profiler.enable()
    if args.mode == "spans":
        spans.run(phases)
    else:
        for __, __, fn in phases:
            fn()
    if profiler is not None:
        profiler.disable()
    end = sampler.mark()
    sampler.stop()

    timed_s, cpu_s = sampler.calibrated(begin, end)
    # Interpreter start and the first imports precede the first sample
    # and count as they are.
    setup_s = sampler.samples[0][0] - args.t0 + sampler.calibrated(0, begin)[0]
    doc = {
        "ops": ops,
        "failed": sum(r.dropped for r in ctx.cluster_results),
        "setup_s": setup_s,
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "raw_timed_s": sampler.samples[end][0] - sampler.samples[begin][0],
        "gc_collections": sum(g["collections"] for g in gc.get_stats()) - gc_before,
        "counts": counts.finish(ops, full=args.mode != "plain"),
    }
    if args.mode == "spans":
        doc["spans"] = spans.metrics()
    if profiler is not None:
        doc["layers"] = ledger.profile_ledger(
            profiler, str(SRC / "repro"), calib.__file__)
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.mode == "spans":
            (out / f"{args.workload}.spans.json").write_text(
                json.dumps(spans.document()))
        if profiler is not None:
            (out / f"{args.workload}.ledger.json").write_text(
                json.dumps(doc["layers"], indent=1, sort_keys=True))
    # Peak memory of this interpreter, read last so it covers the round.
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
