"""MioDB's compaction manager: zero-copy per level, lazy-copy at the
bottom, all in parallel (paper Sections 4.3-4.5).

Scheduling rules, straight from the paper:

- a level compacts as soon as it holds two (ready) PMTables -- no
  capacity limits, no selection policy;
- each level has its own worker, so compactions in different levels
  overlap ("parallel compaction");
- the last buffer level L(n-1) feeds the repository via lazy-copy, the
  only stage that physically moves data (and therefore the only source
  of compaction write amplification -- bounded, with the WAL and the
  flush, by 3x).
"""

from typing import List, Optional

from repro.core.pmtable import PMTable
from repro.kvstore.buffered import submit_compaction
from repro.skiplist.merge import ZeroCopyMerge


class CompactionManager:
    """Drives the elastic buffer's background merging for one MioDB."""

    def __init__(self, store) -> None:
        self.store = store
        self.system = store.system
        self.options = store.options
        executor = self.system.executor
        if self.options.parallel_compaction:
            self.workers = [
                executor.worker(f"miodb-compact-L{i}")
                for i in range(self.options.num_levels)
            ]
        else:
            single = executor.worker("miodb-compact")
            self.workers = [single] * self.options.num_levels

    # ------------------------------------------------------------ scheduling

    def check(self) -> None:
        """Schedule every compaction whose level and worker are ready."""
        last = self.options.num_levels - 1
        for level in range(last):
            self._maybe_zero_copy(level)
        self._maybe_lazy_copy(last)

    def _worker_free(self, level: int) -> bool:
        return self.workers[level].busy_until <= self.system.clock.now

    @staticmethod
    def _ready_tables(tables: List[PMTable]) -> List[PMTable]:
        return [t for t in tables if t.swizzled and not t.busy]

    def _maybe_zero_copy(self, level: int) -> None:
        if not self._worker_free(level):
            return
        ready = self._ready_tables(self.store.levels[level])
        if len(ready) < 2:
            return
        older, newer = ready[0], ready[1]
        self._schedule_zero_copy(level, older, newer)

    def _schedule_zero_copy(self, level: int, older: PMTable, newer: PMTable) -> None:
        older.busy = True
        newer.busy = True
        older.merge_bloom_from(newer)
        with self.system.job_scope():
            if self.options.zero_copy:
                seconds = self._run_pointer_merge(newer, older)
            else:
                seconds = self._run_copy_merge(newer, older)

        def apply() -> None:
            older.busy = False
            self.store.levels[level].remove(older)
            self.store.levels[level].remove(newer)
            older.absorb(newer)
            older.level = level + 1
            self.store.levels[level + 1].append(older)
            self.system.stats.add("compact.count", 1)
            self.store.crash.reach("compact.after_zero_copy")
            self.check()

        submit_compaction(
            self.system, self.workers[level], seconds, apply,
            f"miodb-zero-copy-L{level}", level=level, kind="zero-copy",
            bytes=older.data_bytes + newer.data_bytes,
        )

    def _run_pointer_merge(self, newer: PMTable, older: PMTable) -> float:
        """Zero-copy merge: pointer updates only (no data traffic)."""
        merge = ZeroCopyMerge(newer.skiplist, older.skiplist).run()
        seconds = self.system.nvm.search_time(merge.search_hops)
        # N separate 8-byte atomic writes: N latencies plus the bytes.
        ptr = merge.pointer_writes
        seconds = self.system.nvm.write_words(ptr, seconds)
        self.system.stats.add("compact.ptr_writes", ptr)
        return seconds

    def _run_copy_merge(self, newer: PMTable, older: PMTable) -> float:
        """Ablation: merge by physically rewriting both tables' data."""
        moved = newer.data_bytes + older.data_bytes
        merge = ZeroCopyMerge(newer.skiplist, older.skiplist).run()
        seconds = self.system.nvm.search_time(merge.search_hops)
        seconds += self.system.nvm.read(moved, sequential=True)
        seconds += self.system.nvm.write(moved, sequential=True)
        return seconds

    def _maybe_lazy_copy(self, level: int) -> None:
        if not self._worker_free(level):
            return
        ready = self._ready_tables(self.store.levels[level])
        if not ready:
            return
        self._schedule_lazy_copy(level, ready[0])

    def _schedule_lazy_copy(self, level: int, table: PMTable) -> None:
        table.busy = True
        with self.system.job_scope():
            seconds, repo_apply = self.store.repository.ingest(table)

        def apply() -> None:
            if repo_apply is not None:
                repo_apply()
            table.busy = False
            self.store.levels[level].remove(table)
            freed = table.reclaim()
            self.system.stats.add("gc.reclaimed_bytes", freed)
            self.system.stats.add("compact.lazy_count", 1)
            self.store.crash.reach("compact.after_lazy_copy")
            self.check()

        self.system.stats.add("compact.lazy_time_s", seconds)
        submit_compaction(
            self.system, self.workers[level], seconds, apply,
            f"miodb-lazy-copy-L{level}",
            level=level, kind="lazy-copy", bytes=table.data_bytes,
        )

    def force_progress(self) -> bool:
        """Push data toward the repository when the buffer cap demands it.

        Normal triggers need two tables per level; a lone table parked
        mid-buffer can then never shrink the footprint.  Lazy-copying the
        *globally oldest* table (the oldest table of the deepest
        non-empty level) is always safe: everything younger stays above
        it in the read path, and the repository is searched last.
        """
        for level in range(self.options.num_levels - 1, -1, -1):
            ready = self._ready_tables(self.store.levels[level])
            if not ready:
                continue
            if not self._worker_free(level):
                return True  # work already in flight on this level
            self._schedule_lazy_copy(level, ready[0])
            return True
        return False

    def __repr__(self) -> str:
        counts = [len(level) for level in self.store.levels]
        return f"CompactionManager(levels={counts})"
