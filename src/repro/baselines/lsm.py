"""Leveled SSTable engine (the LevelDB compaction machinery).

One instance manages the on-media levels of a store: L0 receives whole
flushed MemTables (tables may overlap), deeper levels hold disjoint sorted
runs with a ``LEVEL_FANOUT``x capacity ratio.  Compactions are background
jobs: inputs are chosen and costed when a worker is free, and the level
edits are applied when the job's simulated end time passes.

The engine is shared: LevelDB and NoveLSM use it for L0..Ln, MatrixKV for
L1..Ln below its matrix container, and MioDB's SSD mode for the levels
below the elastic NVM buffer.
"""

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.bloom.filter import BloomFilter
from repro.kvstore.buffered import submit_compaction
from repro.obs.events import STALL_L0_SLOWDOWN, STALL_L0_STOP
from repro.sstable.merge import merge_entry_streams
from repro.sstable.table import Entry, SSTable, build_sstable, frame_sizes

#: L0 table count that makes L0 the most urgent compaction.
L0_COMPACTION_TRIGGER = 4

#: L0 table count from which every write is delayed (cumulative stall).
L0_SLOWDOWN_TABLES = 8

#: Per-write delay while in slowdown (LevelDB: 1 ms).
SLOWDOWN_DELAY_S = 1e-3

#: L0 table count that blocks MemTable rotation (interval stall).
L0_STOP_TABLES = 12

#: Capacity ratio between adjacent levels below L0 (paper: 10).
LEVEL_FANOUT = 10

#: Bits per key for the per-SSTable bloom filters (LevelDB's default-ish).
SSTABLE_BLOOM_BITS = 10


class L0Backpressure:
    """LevelDB's MakeRoomForWrite pacing for a buffered store whose
    flushes land in L0 of ``self.lsm``: a fixed delay per write past the
    slowdown mark (cumulative stall), no rotation past the stop mark
    (interval stall)."""

    def _l0_slowdown(self) -> float:
        if self.lsm.l0_table_count() >= L0_SLOWDOWN_TABLES:
            return self._stall_delay(STALL_L0_SLOWDOWN, SLOWDOWN_DELAY_S)
        return 0.0

    def _rotate_gate(self) -> None:
        self._stall_until(
            STALL_L0_STOP,
            lambda: self.lsm.l0_table_count() >= L0_STOP_TABLES,
            self.lsm.maybe_compact,
        )


class LeveledLSM:
    """Levels of SSTables plus background compaction scheduling."""

    def __init__(
        self,
        system,
        options,
        device,
        nworkers: int = 1,
        label: str = "lsm",
    ) -> None:
        if options.num_levels < 2:
            # L0 drains only into a deeper level: one level wedges at
            # the L0 stop mark, none has nowhere to flush.
            raise ValueError(
                f"a leveled engine needs num_levels >= 2, got {options.num_levels}"
            )
        self.system = system
        self.options = options
        self.device = device
        self.label = label
        self.levels: List[List[SSTable]] = [[] for __ in range(options.num_levels)]
        self.workers = [
            system.executor.worker(f"{label}-compact-{i}") for i in range(nworkers)
        ]
        self._busy = set()
        #: Called after every applied compaction, or None (MatrixKV's
        #: column compaction subscribes).
        self.on_compaction = None
        self.bottom_level = options.num_levels - 1

    # ------------------------------------------------------------- ingestion

    def build_table(self, entries: Sequence[Entry], label: str = "") -> Tuple[SSTable, float]:
        """Serialize entries into a table on this engine's device.

        Returns (table, build_seconds); the caller decides which level the
        table lands in and when (usually via a flush job callback).
        """
        table, seconds = build_sstable(entries, self.device, self.system.cpu, label)
        self.system.stats.add(
            "serialize.time_s", self.system.cpu.serialize_time(table.data_bytes)
        )
        bloom = BloomFilter.for_capacity(max(1, len(entries)), SSTABLE_BLOOM_BITS)
        bloom.add_all(table.keys)
        seconds += self.system.cpu.bloom_build_time(len(entries))
        table.bloom = bloom
        return table, seconds

    def add_table(self, level: int, table: SSTable) -> None:
        """Install a built table into ``level`` and re-check triggers."""
        self._check_level(level)
        self.levels[level].append(table)
        if level > 0:
            self.levels[level].sort(key=lambda t: t.min_key)
        self.maybe_compact()

    def split_entries(self, entries: Sequence[Entry]) -> List[List[Entry]]:
        """Chunk a sorted entry run into SSTable-sized pieces.

        Chunks only cut at key boundaries: splitting one key's version
        run across two tables would let an older version land in a
        younger table and break the read path's newest-first ordering.
        """
        limit = self.options.sstable_bytes
        last = len(entries) - 1
        chunks: List[List[Entry]] = []
        start = used = 0
        for i, size in enumerate(frame_sizes(entries)):
            used += size
            if used >= limit and (i == last or entries[i + 1][0] != entries[i][0]):
                chunks.append(entries[start : i + 1])
                start = i + 1
                used = 0
        if start <= last:
            chunks.append(entries[start:])
        return chunks

    # ------------------------------------------------------------ compaction

    def maybe_compact(self) -> None:
        """Schedule compactions on free workers while triggers fire."""
        for worker in self.workers:
            if worker.busy_until > self.system.clock.now:
                continue
            plan = self._pick_compaction()
            if plan is None:
                return
            self._schedule(worker, *plan)

    def _pick_compaction(self) -> Optional[Tuple[int, List[SSTable], List[SSTable]]]:
        best_level, best_score = None, 0.0
        for level in range(self.bottom_level):
            score = self._level_score(level)
            if score >= 1.0 and score > best_score:
                best_level, best_score = level, score
        if best_level is None:
            return None
        return self._plan_for(best_level)

    def _level_score(self, level: int) -> float:
        free = [t for t in self.levels[level] if t.table_id not in self._busy]
        if not free:
            return 0.0
        if level == 0:
            return len(free) / float(L0_COMPACTION_TRIGGER)
        total = sum(t.data_bytes for t in free)
        return total / float(self.level_capacity(level))

    def level_capacity(self, level: int) -> int:
        """Byte budget of ``level`` >= 1 (L0 is scored by table count)."""
        return self.options.sstable_bytes * (LEVEL_FANOUT ** level)

    def _plan_for(
        self, level: int
    ) -> Optional[Tuple[int, List[SSTable], List[SSTable]]]:
        """Pick and reserve ``level``'s inputs and their overlaps below."""
        if level == 0:
            inputs = [t for t in self.levels[0] if t.table_id not in self._busy]
        else:
            inputs = [
                t for t in self.levels[level][:1] if t.table_id not in self._busy
            ]
        if not inputs:
            return None
        min_key = min(t.min_key for t in inputs)
        max_key = max(t.max_key for t in inputs)
        overlaps = [
            t for t in self.levels[level + 1] if t.overlaps(min_key, max_key)
        ]
        if not self.try_reserve(inputs + overlaps):
            return None
        return level, inputs, overlaps

    def _schedule(
        self, worker, level: int, inputs: List[SSTable], overlaps: List[SSTable]
    ) -> None:
        target = level + 1
        with self.system.job_scope():
            outputs, seconds = self.merge(
                0.0, [], inputs + overlaps, target == self.bottom_level,
                f"{self.label}-L{target}",
            )
        bytes_moved = sum(t.data_bytes for t in inputs + overlaps)

        def apply() -> None:
            # The source level only shrinks; installing the target
            # re-triggers compaction and notifies listeners, once.
            self._remove(level, inputs)
            self.system.stats.add("compact.count", 1)
            self.system.stats.add("compact.bytes_in", bytes_moved)
            self.replace_tables(target, overlaps, outputs)

        submit_compaction(
            self.system, worker, seconds, apply, f"{self.label}-compact-L{level}",
            level=level, bytes=bytes_moved,
        )

    def merge(
        self, seconds: float, streams: List[Sequence[Entry]],
        tables: Sequence[SSTable], drop_tombstones: bool, label: str,
    ) -> Tuple[List[SSTable], float]:
        """Scan ``tables`` onto ``streams``, keep each key's newest
        version, split and build tables labelled ``{label}-{i}``.

        Scan then build costs are added onto the caller's running
        ``seconds`` one by one (float addition does not associate).
        """
        streams = list(streams)
        for table in tables:
            entries, cost = table.scan_all(self.system.cpu)
            seconds += cost
            streams.append(entries)
        merged = merge_entry_streams(streams, drop_tombstones)
        outputs: List[SSTable] = []
        for i, chunk in enumerate(self.split_entries(merged)):
            table, cost = self.build_table(chunk, f"{label}-{i}")
            outputs.append(table)
            seconds += cost
        return outputs, seconds

    # ----------------------------------------------------------------- reads

    def get(self, key: bytes) -> Tuple[Optional[Entry], float]:
        """Search L0 newest-first, then one candidate table per level."""
        seconds = 0.0
        for table in reversed(self.levels[0]):
            entry, cost = self._probe(table, key)
            seconds += cost
            if entry is not None:
                return entry, seconds
        for level in range(1, self.options.num_levels):
            # Runs below L0 are normally disjoint, so at most one table
            # covers the key; probing every covering table and keeping
            # the newest version also stays correct if runs ever overlap
            # transiently (e.g. around external column compactions).
            best = None
            for table in self.levels[level]:
                if table.min_key <= key <= table.max_key:
                    entry, cost = self._probe(table, key)
                    seconds += cost
                    if entry is not None and (best is None or entry[1] > best[1]):
                        best = entry
            if best is not None:
                return best, seconds
        return None, seconds

    def _probe(self, table: SSTable, key: bytes) -> Tuple[Optional[Entry], float]:
        if not (table.min_key <= key <= table.max_key):
            return None, 0.0
        seconds = self.system.cpu.bloom_probe_time()
        if not table.bloom.may_contain(key):
            return None, seconds
        entry, cost = table.get(key, self.system.cpu, self.system.stats)
        return entry, seconds + cost

    def scan_sources(self, key: bytes) -> List[tuple]:
        """Per-table sources for a merged scan from ``key``."""
        return [
            (table.entries, bisect_left(table.keys, key), self.device)
            for level_tables in self.levels
            for table in level_tables
            if table.max_key >= key
        ]

    # --------------------------------------------------- reserve and install

    def try_reserve(self, tables: Sequence[SSTable]) -> bool:
        """Atomically mark a compaction's input tables busy.

        Returns ``False`` (reserving nothing) when any is already busy.
        This engine's own planner reserves through it, and so does
        MatrixKV's column compaction, which merges container columns
        with L1 tables outside this engine's scheduler.
        """
        if any(t.table_id in self._busy for t in tables):
            return False
        for table in tables:
            self._busy.add(table.table_id)
        return True

    def replace_tables(
        self, level: int, remove: Sequence[SSTable], add: Sequence[SSTable]
    ) -> None:
        """Install a compaction result into ``level``: release ``remove``,
        add ``add``, re-check triggers and call :attr:`on_compaction`."""
        self._check_level(level)
        self._remove(level, remove)
        self.levels[level].extend(add)
        self.levels[level].sort(key=lambda t: t.min_key)
        self.maybe_compact()
        if self.on_compaction is not None:
            self.on_compaction()

    def _remove(self, level: int, tables: Sequence[SSTable]) -> None:
        removed_ids = {t.table_id for t in tables}
        self.levels[level] = [
            t for t in self.levels[level] if t.table_id not in removed_ids
        ]
        for table in tables:
            self._busy.discard(table.table_id)
            table.release()

    # ------------------------------------------------------------- reporting

    def l0_table_count(self) -> int:
        """Current number of L0 tables (drives slowdown/stop stalls)."""
        return len(self.levels[0])

    def total_data_bytes(self) -> int:
        """Bytes across all live tables."""
        return sum(t.data_bytes for level in self.levels for t in level)

    def table_counts(self) -> List[int]:
        """Tables per level, for diagnostics."""
        return [len(level) for level in self.levels]

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.options.num_levels:
            raise ValueError(
                f"level {level} out of range [0, {self.options.num_levels})"
            )

    def __repr__(self) -> str:
        return f"LeveledLSM({self.label!r}, tables={self.table_counts()})"
