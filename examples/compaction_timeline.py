#!/usr/bin/env python3
"""Visualise MioDB's parallel compaction as an ASCII gantt chart.

Traces every background job during a write burst and renders one row per
worker: the one-piece flush worker stays continuously busy while the
per-level zero-copy workers overlap below it (paper Section 4.5).  For
contrast, the same burst on LevelDB shows a single compaction worker
serialising everything.

Run:  python examples/compaction_timeline.py
"""

from repro import HybridMemorySystem, LevelDBStore, MioDB, MioOptions, SizedValue
from repro.kvstore.options import StoreOptions
from repro.obs import gantt, queue_depth_csv

KB = 1 << 10


def burst(store, n: int) -> None:
    for i in range(n):
        store.put(b"user%012d" % ((i * 7919) % n), SizedValue(i, 1024))
    store.quiesce()


def peak_concurrency(recorder) -> int:
    """Most background jobs in flight at one simulated instant."""
    rows = queue_depth_csv(recorder).splitlines()[1:]  # "t_s,depth" steps
    return max(int(row.split(",")[1]) for row in rows)


def main() -> None:
    system = HybridMemorySystem()
    recorder = system.attach_tracing()
    store = MioDB(system, MioOptions(memtable_bytes=32 * KB, num_levels=6))
    burst(store, 4000)
    print("MioDB: flush + per-level parallel compaction")
    print(gantt(recorder))
    print(f"peak background concurrency: {peak_concurrency(recorder)}\n")

    system = HybridMemorySystem()
    recorder = system.attach_tracing()
    store = LevelDBStore(
        system, StoreOptions(memtable_bytes=32 * KB, sstable_bytes=32 * KB)
    )
    burst(store, 4000)
    print("LevelDB: one flush worker + one compaction worker")
    print(gantt(recorder))
    print(f"peak background concurrency: {peak_concurrency(recorder)}")


if __name__ == "__main__":
    main()
