"""Background jobs as the trace recorder sees them: worker spans and the gantt."""

from repro.core import MioDB, MioOptions
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.obs import gantt

KB = 1 << 10


def test_empty_gantt(system):
    assert "no jobs" in gantt(system.attach_tracing())


def test_gantt_renders_rows(system):
    recorder = system.attach_tracing()
    system.executor.submit(system.executor.worker("alpha"), 1.0)
    system.executor.submit(system.executor.worker("beta"), 1.0)
    chart = gantt(recorder)
    assert "alpha" in chart and "beta" in chart
    assert "#" in chart


def test_miodb_parallel_compaction_visible_in_trace():
    system = HybridMemorySystem()
    recorder = system.attach_tracing()
    store = MioDB(system, MioOptions(memtable_bytes=8 * KB, num_levels=5))
    for i in range(2000):
        store.put(b"key%06d" % ((i * 7919) % 2000), SizedValue(i, 512))
    store.quiesce()
    spans = list(recorder.worker_spans())
    # parallel per-level compaction (paper section 4.5): more than two
    # background jobs overlap.  An end sorts before a start at the same
    # instant, so back-to-back jobs do not count as overlapping.
    edges = sorted(
        edge for s in spans for edge in ((s.ts, 1), (s.end, -1))
    )
    peak = running = 0
    for __, delta in edges:
        running += delta
        peak = max(peak, running)
    assert peak >= 3
    workers = {s.track[len("worker:"):] for s in spans}
    assert any("compact-L" in w for w in workers)
    assert "miodb-flush" in workers
