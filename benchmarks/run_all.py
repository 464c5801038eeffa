#!/usr/bin/env python
"""Regenerate every figure/table artifact, fanned across processes.

Run it from anywhere::

    python benchmarks/run_all.py --jobs 8
    REPRO_BENCH_SCALE=large python benchmarks/run_all.py

Every benchmark file builds its own simulated machine, so the files are
independent: each gets its own pytest subprocess on a
``ProcessPoolExecutor`` worker and rewrites its
``benchmarks/results/<artifact>.txt``.  The runner prints per-file wall
time and the aggregate speedup over serial execution.
"""

import argparse
import os
import pathlib
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import List, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def discover(bench_dir: pathlib.Path, match: str = "") -> List[str]:
    """Benchmark files (``test_*.py``) in ``bench_dir``, optionally filtered."""
    names = sorted(p.name for p in bench_dir.glob("test_*.py"))
    if match:
        names = [n for n in names if match in n]
    return names


def run_one(bench_dir: str, filename: str) -> Tuple[str, int, float, str]:
    """Run one benchmark file in a pytest subprocess.

    Top-level (picklable) so a ``ProcessPoolExecutor`` can ship it to a
    worker.  Returns ``(filename, returncode, wall_seconds, tail)``
    where ``tail`` is the last part of captured output for diagnostics.
    """
    directory = pathlib.Path(bench_dir)
    src = str(directory.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(directory / filename), "-q",
         "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(directory.parent),
    )
    wall = time.perf_counter() - t0
    tail = (proc.stdout[-2000:] + proc.stderr[-2000:]) if proc.returncode else ""
    return filename, proc.returncode, wall, tail


def run_suite(bench_dir: pathlib.Path, jobs: int, match: str = "") -> int:
    """Fan the suite across ``jobs`` workers; returns the failure count."""
    names = discover(bench_dir, match)
    if not names:
        print(f"no benchmark files matching {match!r} under {bench_dir}")
        return 0
    jobs = max(1, min(jobs, len(names)))
    print(f"regenerating {len(names)} artifacts with {jobs} worker(s)")
    failures = 0
    serial = 0.0
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_one, str(bench_dir), name) for name in names]
        for future in as_completed(futures):
            filename, code, wall, tail = future.result()
            serial += wall
            status = "ok" if code == 0 else f"FAIL rc={code}"
            print(f"  {filename:<40} {wall:7.2f}s  {status}")
            if code != 0:
                failures += 1
                if tail.strip():
                    print(tail)
    total = time.perf_counter() - t0
    print(
        f"done in {total:.2f}s wall ({serial:.2f}s of benchmark work, "
        f"{serial / total:.2f}x parallel speedup); {failures} failure(s)"
    )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate all figure/table artifacts in parallel"
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=os.cpu_count() or 1,
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--match", default="",
        help="only run benchmark files whose name contains this substring",
    )
    args = parser.parse_args(argv)
    return 1 if run_suite(BENCH_DIR, args.jobs, args.match) else 0


if __name__ == "__main__":
    raise SystemExit(main())
