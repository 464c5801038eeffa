"""MatrixKV: a matrix container at L0 in NVM with column compaction.

Faithful to the paper's description (Section 2.3 and Figure 1(d)):

- Flushed MemTables become *rows* of a matrix container in NVM.  The
  flush still serializes data (rows are in storage format), but it is a
  fast sequential NVM write, so MemTable flushing rarely blocks.
- The container is compacted to L1 one *column* (key-range slice across
  all rows) at a time, which keeps individual compactions small and
  removes interval stalls; sustained pressure surfaces as cumulative
  slowdown instead (the paper measures 731 s of it).
- Rows keep a DRAM-resident key index, so locating a key in a row is
  cheap; reading the KV still pays NVM access plus deserialization.
- Compaction below L1 is ordinary leveled compaction, with parallel
  workers (the paper's Figure 9 shows MatrixKV using up to 4).
"""

import bisect
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import List, Optional, Tuple

from repro.baselines import lsm
from repro.baselines.lsm import LeveledLSM
from repro.bloom.filter import BloomFilter
from repro.kvstore.buffered import BufferedStore, submit_compaction
from repro.kvstore.memtable import MemTable, memtable_entries
from repro.kvstore.options import MB, StoreOptions
from repro.kvstore.scans import memtable_sources, merged_scan
from repro.obs.events import STALL_L0_SLOWDOWN, STALL_L0_STOP
from repro.persist.arena import Arena
from repro.sstable.table import entry_frame_bytes, frame_sizes, run_bytes

#: Container fill (fraction of ``container_bytes``) that starts column
#: compaction, that slows every write, and that blocks rotation.
COMPACT_FILL = 0.5
SLOWDOWN_FILL = 0.7
STOP_FILL = 0.95


@dataclass
class MatrixKVOptions(StoreOptions):
    """MatrixKV's container sizing and compaction workers."""

    container_bytes: int = 16 * MB
    column_target_bytes: int = 4 * MB
    compaction_workers: int = 4


class MatrixRow:
    """One flushed MemTable, serialized into the container."""

    _ids = 0

    def __init__(self, system, entries, label: str = "") -> None:
        MatrixRow._ids += 1
        self.row_id = MatrixRow._ids
        self.system = system
        self.entries = list(entries)
        self.keys = [e[0] for e in self.entries]  # DRAM index
        self.data_bytes = run_bytes(self.entries)
        self.arena = Arena(system.nvm, self.data_bytes, label or f"row-{self.row_id}")
        self.bloom = BloomFilter.for_capacity(
            max(1, len(self.entries)), lsm.SSTABLE_BLOOM_BITS
        )
        self.bloom.add_all(self.keys)

    def get(self, key: bytes, cpu) -> Tuple[Optional[tuple], float]:
        """Indexed point lookup; charges NVM read + deserialization."""
        seconds = cpu.bloom_probe_time()
        if not self.bloom.may_contain(key):
            return None, seconds
        idx = bisect.bisect_left(self.keys, key)
        if idx >= len(self.entries) or self.entries[idx][0] != key:
            return None, seconds
        entry = self.entries[idx]
        nbytes = entry_frame_bytes(entry)
        deser = cpu.deserialize_time(nbytes)
        self.system.stats.add("deserialize.time_s", deser)
        seconds += self.system.nvm.read(nbytes, sequential=False) + deser
        return entry, seconds

    def take_range(self, low: Optional[bytes], high: Optional[bytes]) -> List[tuple]:
        """Remove and return entries with ``low <= key <= high``.

        ``None`` bounds are open; space is returned to the device.
        """
        lo = 0 if low is None else bisect.bisect_left(self.keys, low)
        hi = len(self.entries) if high is None else bisect.bisect_right(self.keys, high)
        taken = self.entries[lo:hi]
        if not taken:
            return []
        self.entries = self.entries[:lo] + self.entries[hi:]
        self.keys = self.keys[:lo] + self.keys[hi:]
        freed = run_bytes(taken)
        self.data_bytes -= freed
        self.arena.shrink(freed)
        return taken

    @property
    def is_empty(self) -> bool:
        return not self.entries


class MatrixKVStore(BufferedStore):
    """MatrixKV on a DRAM+NVM machine (lower levels on NVM or SSD)."""

    name = "matrixkv"

    def __init__(self, system, options: Optional[MatrixKVOptions] = None) -> None:
        options = options or MatrixKVOptions()
        self.device = system.bottom_tier
        # First, so a refused level count leaves no memory taken.
        self.lsm = LeveledLSM(system, options, self.device,
                              nworkers=options.compaction_workers, label=self.name)
        super().__init__(system, options, 0x3A7B, system.nvm)
        self.rows: List[MatrixRow] = []
        self.flush_worker = system.executor.worker(f"{self.name}-flush")
        self.column_worker = system.executor.worker(f"{self.name}-column")
        self._column_cursor: Optional[bytes] = None
        self._column_busy = False
        self._inflight_column = {}
        self.lsm.on_compaction = self._maybe_column_compact

    # ------------------------------------------------------------ write path

    def container_bytes(self) -> int:
        """Live bytes currently held by the matrix container."""
        return sum(row.data_bytes for row in self.rows)

    def _write_delay(self) -> float:
        """RocksDB-style delayed writes: container pressure or pending
        flush slow the foreground instead of blocking it."""
        fill = self.container_bytes() / float(self.options.container_bytes)
        if fill >= SLOWDOWN_FILL or self._flush_busy:
            # The matrix container plays L0's role, so container
            # pressure reports as the canonical l0-slowdown cause.
            return self._stall_delay(STALL_L0_SLOWDOWN, lsm.SLOWDOWN_DELAY_S)
        return 0.0

    def _rotate_gate(self) -> None:
        limit = STOP_FILL * self.options.container_bytes
        self._stall_until(
            STALL_L0_STOP,
            lambda: self.container_bytes() >= limit,
            self._maybe_column_compact,
        )

    def _schedule_flush(self, table: MemTable):
        entries = memtable_entries(table)
        row = MatrixRow(self.system, entries, f"{self.name}-row")
        with self.system.job_scope():
            seconds = self.system.dram.read(table.data_bytes, sequential=True)
            seconds += self.system.cpu.serialize_time(row.data_bytes)
            seconds += self.system.nvm.write(row.data_bytes, sequential=True)

        def apply() -> None:
            self.rows.append(row)
            self._retire(table)
            self._maybe_column_compact()

        job = self._submit_flush(table, seconds, apply, f"{self.name}-flush")
        self.system.stats.add("serialize.time_s", self.system.cpu.serialize_time(row.data_bytes))
        return job

    # ------------------------------------------------------- column compaction

    def _maybe_column_compact(self) -> None:
        if self._column_busy:
            return
        threshold = COMPACT_FILL * self.options.container_bytes
        if self.container_bytes() < threshold:
            return
        if self.column_worker.busy_until > self.system.clock.now:
            return
        self._schedule_column_compaction()

    def _pick_column(self) -> Optional[Tuple[Optional[bytes], bytes]]:
        """Choose [low, high] so the selected slice is about one column.

        Returns ``None`` when the container holds nothing to compact;
        the cursor wraps to the start of the key space when it passes
        the container's maximum key.
        """
        low = self._column_cursor
        candidates = []
        for row in self.rows:
            start = 0 if low is None else bisect.bisect_left(row.keys, low)
            candidates.extend(row.entries[start:])
        if not candidates and low is not None:
            low = None
            candidates = [e for row in self.rows for e in row.entries]
        if not candidates:
            self._column_cursor = None
            return None
        candidates.sort(key=itemgetter(0))
        # The column ends at the first entry whose running size reaches
        # the target, or at the container's last key.
        used = list(accumulate(frame_sizes(candidates)))
        end = bisect.bisect_left(used, self.options.column_target_bytes)
        return low, candidates[min(end, len(used) - 1)][0]

    def _schedule_column_compaction(self) -> None:
        column = self._pick_column()
        if column is None:
            return
        low, high = column
        bounds_low = low if low is not None else min(
            (row.keys[0] for row in self.rows if row.keys), default=high
        )
        overlaps = [t for t in self.lsm.levels[1] if t.overlaps(bounds_low, high)]
        if not self.lsm.try_reserve(overlaps):
            # An L1 input is being compacted downward; retry when that
            # compaction completes (the completion listener re-triggers
            # us).  Compacting around a busy table would create
            # overlapping L1 runs, which the read path must never see.
            return
        # ``_pick_column`` only returns a range that holds an entry, so
        # at least one row gives something up.
        taken_streams = [
            taken for taken in (row.take_range(low, high) for row in self.rows) if taken
        ]
        taken_bytes = sum(map(run_bytes, taken_streams))
        self.rows = [row for row in self.rows if not row.is_empty]
        # Keep the in-flight column readable until the result is applied.
        for stream in taken_streams:
            for entry in stream:
                current = self._inflight_column.get(entry[0])
                if current is None or entry[1] > current[1]:
                    self._inflight_column[entry[0]] = entry

        with self.system.job_scope():
            seconds = self.system.nvm.read(taken_bytes, sequential=True)
            seconds += self.system.cpu.deserialize_time(taken_bytes)
            outputs, seconds = self.lsm.merge(
                seconds, taken_streams, overlaps,
                all(not level for level in self.lsm.levels[2:]),
                f"{self.name}-col",
            )

        self._column_busy = True
        self._column_cursor = _next_key(high)

        def apply() -> None:
            self._column_busy = False
            self._inflight_column.clear()
            self.lsm.replace_tables(1, overlaps, outputs)
            self.system.stats.add("compact.count", 1)
            self.system.stats.add("compact.bytes_in", taken_bytes)
            self._maybe_column_compact()

        submit_compaction(
            self.system, self.column_worker, seconds, apply, f"{self.name}-column",
            level=0, kind="column", bytes=taken_bytes,
        )

    # ------------------------------------------------------------- read path

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        seconds = 0.0
        for table in (self.memtable, self.immutable):
            if table is None:
                continue
            node, cost = table.get(key)
            seconds += cost
            if node is not None:
                return node.value, seconds
        for row in reversed(self.rows):
            entry, cost = row.get(key, self.system.cpu)
            seconds += cost
            if entry is not None:
                return entry[2], seconds
        inflight = self._inflight_column.get(key)
        if inflight is not None:
            nbytes = entry_frame_bytes(inflight)
            seconds += self.system.nvm.read(nbytes, sequential=False)
            seconds += self.system.cpu.deserialize_time(nbytes)
            return inflight[2], seconds
        entry, cost = self.lsm.get(key)
        return (None if entry is None else entry[2]), seconds + cost

    def _scan(self, start_key: bytes, count: int):
        nvm = self.system.nvm
        sources = memtable_sources(self.memtable, self.immutable)
        sources.extend(
            (row.entries, bisect.bisect_left(row.keys, start_key), nvm)
            for row in self.rows
        )
        if self._inflight_column:
            window = sorted(
                (e for k, e in self._inflight_column.items() if k >= start_key),
                key=lambda e: (e[0], -e[1]),
            )
            sources.append((window, 0, nvm))
        sources.extend(self.lsm.scan_sources(start_key))
        return merged_scan(self.system, start_key, count, sources)


def _next_key(key: bytes) -> bytes:
    """The smallest key strictly greater than ``key``."""
    return key + b"\x00"
