"""LevelDB-style KV store: DRAM MemTable + leveled SSTables.

This is the classic design (paper Figure 1(a)) that everything else
modifies.  Its write path exhibits both stall kinds the paper measures:

- *interval stalls*: the MemTable fills while the immutable MemTable is
  still being flushed (writes block until the flush completes), and L0
  reaching the stop threshold blocks writes outright;
- *cumulative stalls*: L0 reaching the slowdown threshold adds a fixed
  delay to every write.
"""

from typing import List, Optional, Tuple

from repro.baselines.lsm import LeveledLSM
from repro.kvstore.api import KVStore
from repro.kvstore.memtable import MemTable, memtable_entries
from repro.kvstore.options import StoreOptions
from repro.kvstore.scans import memtable_sources, merged_scan
from repro.obs.events import (
    CAT_FLUSH,
    STALL_L0_SLOWDOWN,
    STALL_L0_STOP,
    STALL_MEMTABLE_FULL,
)
from repro.persist.wal import WriteAheadLog
from repro.sim.rng import XorShiftRng
from repro.skiplist.node import TOMBSTONE


class LevelDBStore(KVStore):
    """The reference leveled-LSM engine on a single persistent device."""

    name = "leveldb"

    def __init__(self, system, options: Optional[StoreOptions] = None, media: str = "nvm") -> None:
        super().__init__(system, options or StoreOptions())
        self.device = self._pick_device(system, media)
        self.rng = XorShiftRng(0x1EAF)
        self.wal = WriteAheadLog(
            self.device, f"{self.name}-wal",
            fsync_policy=self.options.fsync_policy, clock=system.clock,
        )
        self.memtable = MemTable(system, self.options.memtable_bytes, self.rng.fork())
        self.immutable: Optional[MemTable] = None
        self._flush_job = None
        self.lsm = LeveledLSM(system, self.options, self.device, nworkers=1, label=self.name)
        self.flush_worker = system.executor.worker(f"{self.name}-flush")

    @staticmethod
    def _pick_device(system, media: str):
        if media == "nvm":
            return system.nvm
        if media == "ssd":
            if system.ssd is None:
                raise ValueError("system has no SSD device")
            return system.ssd
        raise ValueError(f"unknown media {media!r}")

    # ------------------------------------------------------------ write path

    def _put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        seconds = self._make_room()
        if self.options.wal_enabled:
            seconds += self.wal.append(seq, key, value, value_bytes)
        seconds += self.memtable.insert(key, seq, value, value_bytes)
        return seconds

    def _make_room(self) -> float:
        """LevelDB's MakeRoomForWrite: slowdown, rotate, or block."""
        seconds = 0.0
        if self.lsm.l0_table_count() >= self.options.l0_slowdown_tables:
            seconds += self._stall_delay(
                STALL_L0_SLOWDOWN, self.options.slowdown_delay_s
            )
        if not self.memtable.is_full:
            return seconds
        if self._flush_job is not None and not self._flush_job.done:
            stalled = self.system.executor.wait_for(self._flush_job)
            self._stall_wait(STALL_MEMTABLE_FULL, stalled)
        seconds += self._wait_while_l0_stopped()
        self._rotate_memtable()
        return seconds

    def _wait_while_l0_stopped(self) -> float:
        """Block (advancing the clock) until L0 drops below the stop mark."""
        while self.lsm.l0_table_count() >= self.options.l0_stop_tables:
            self.lsm.maybe_compact()
            deadline = self.system.executor.next_completion()
            if deadline is None:
                raise RuntimeError("L0 stopped with no background work pending")
            before = self.system.clock.now
            self.system.clock.advance_to(deadline)
            self.system.executor.settle()
            self._stall_wait(STALL_L0_STOP, self.system.clock.now - before)
        return 0.0

    def _rotate_memtable(self) -> None:
        old = self.memtable
        old.mark_immutable()
        self.immutable = old
        self.memtable = MemTable(
            self.system, self.options.memtable_bytes, self.rng.fork()
        )
        self._flush_job = self._schedule_flush(old)

    def _schedule_flush(self, table: MemTable):
        entries = memtable_entries(table)
        with self.system.job_scope():
            seconds = self.system.dram.read(table.data_bytes, sequential=True)
            sst, build_cost = self.lsm.build_table(entries, f"{self.name}-L0")
        seconds += build_cost
        last_seq = max(e[1] for e in entries) if entries else self.seq

        def apply() -> None:
            self.lsm.add_table(0, sst)
            table.release()
            if self.immutable is table:
                self.immutable = None
            if self.options.wal_enabled:
                self.wal.truncate_through(last_seq)

        self.system.stats.add("flush.count", 1)
        self.system.stats.add("flush.time_s", seconds)
        self.system.stats.add("flush.bytes", table.data_bytes)
        return self.system.executor.submit(
            self.flush_worker, seconds, apply, name=f"{self.name}-flush",
            meta={"cat": CAT_FLUSH, "bytes": table.data_bytes},
            # In-flight the flush only reads the rotated (frozen)
            # MemTable; the active one stays foreground-writable.
            accesses=(("r", "memtable:imm"),),
        )

    # ------------------------------------------------------------- read path

    def _batch_lookup(self):
        tables = tuple(
            t for t in (self.memtable, self.immutable) if t is not None
        )
        lsm_get = self.lsm.get

        def lookup(key):
            # Mirrors _get, including its quirk: a missing table's probe
            # cost is discarded, not accumulated.
            for table in tables:
                node, cost = table.get(key)
                if node is not None:
                    return (None if node.is_tombstone else node.value), cost
            entry, cost = lsm_get(key)
            if entry is None:
                return None, cost
            value = entry[2]
            return (None if value is TOMBSTONE else value), cost

        return lookup

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        for table in (self.memtable, self.immutable):
            if table is None:
                continue
            node, cost = table.get(key)
            if node is not None:
                return (None if node.is_tombstone else node.value), cost
        entry, cost = self.lsm.get(key)
        if entry is None:
            return None, cost
        value = entry[2]
        return (None if value is TOMBSTONE else value), cost

    def _scan(self, start_key: bytes, count: int):
        sources = memtable_sources(self.memtable, self.immutable)
        sources.extend(self.lsm.scan_sources(start_key))
        return merged_scan(self.system, start_key, count, sources)
