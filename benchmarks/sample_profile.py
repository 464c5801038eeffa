#!/usr/bin/env python3
"""Sampled host-time profile of one e2e workload's timed phases.

    python3 benchmarks/sample_profile.py store-write
    python3 benchmarks/sample_profile.py store-write --phase quiesce --seeds 1,2,3
    python3 benchmarks/sample_profile.py store-write --scale 0.05

Builds the workload exactly as ``benchmarks/e2e/run.py`` does (its
``workloads.py``, imported read-only, no proxy) and runs its phases
under a ``SIGPROF`` timer that samples the Python stack every
millisecond of CPU time (the kernel's timer tick may round that up).
Per function it prints the self share (the sampled leaf frame) and the
cumulative share (on the stack), over the samples taken inside the
phases, the ``TOP_ROWS`` largest by self share; then every layer's
summed self share (the packages under ``src/repro`` that the e2e
ledger buckets by, ``benchmarks/e2e/ledger.py``'s ``LAYERS``, plus
``other``), so a layer spread over many small frames is counted whole.

Unlike ``cProfile`` (the ``--trace 1`` ledger), sampling adds no cost
per call, so a kernel that runs one long loop is not under-reported
against the many small frames around it.
"""

import argparse
import collections
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE / "e2e"))

from ledger import LAYERS  # noqa: E402
from workloads import WORKLOADS, Ctx  # noqa: E402

INTERVAL_S = 1e-3
TOP_ROWS = 25


def where(code) -> str:
    path = pathlib.Path(code.co_filename)
    parts = path.parts
    name = "/".join(parts[parts.index("repro"):]) if "repro" in parts else path.name
    return f"{name}:{getattr(code, 'co_qualname', code.co_name)}"


def layer_of(key: str) -> str:
    """The ledger layer of a :func:`where` key: its package under ``repro``."""
    head, __, rest = key.partition("/")
    layer = rest.partition("/")[0]
    return layer if head == "repro" and layer in LAYERS else "other"


class Sampler:
    """Counts leaf and on-stack functions while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.samples = 0
        self.own = collections.Counter()
        self.total = collections.Counter()

    def __call__(self, signum, frame) -> None:
        if not self.active or frame is None:
            return
        self.samples += 1
        self.own[where(frame.f_code)] += 1
        seen = set()
        while frame is not None:
            seen.add(where(frame.f_code))
            frame = frame.f_back
        self.total.update(seen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--phase", default=None,
                        help="sample only this phase (default: every phase)")
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    args = parser.parse_args(argv)

    sampler = Sampler()
    signal.signal(signal.SIGPROF, sampler)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for seed in (int(s) for s in args.seeds.split(",")):
            phases = WORKLOADS[args.workload](Ctx(seed, args.scale, lambda s: s))
            names = [name for name, __, __ in phases]
            if args.phase not in (None, *names):
                parser.error(f"{args.workload} has no phase {args.phase!r}: {names}")
            for name, __, fn in phases:
                sampler.active = args.phase in (None, name)
                fn()
                sampler.active = False
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    n = max(sampler.samples, 1)
    print(f"{args.workload} phase={args.phase or 'all'} scale={args.scale} "
          f"seeds={args.seeds}: {sampler.samples} samples")
    print(f"{'self %':>7} {'cum %':>7}  function")
    for key, count in sampler.own.most_common(TOP_ROWS):
        print(f"{100 * count / n:7.1f} {100 * sampler.total[key] / n:7.1f}  {key}")
    layers = collections.Counter()
    for key, count in sampler.own.items():
        layers[layer_of(key)] += count
    print(f"{'self %':>7}  layer")
    for layer in LAYERS + ("other",):
        print(f"{100 * layers[layer] / n:7.1f}  {layer}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
