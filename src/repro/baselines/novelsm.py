"""NoveLSM: LevelDB with large persistent MemTables in NVM.

Two architectures from the paper (Section 2.3):

- *flat* (Figure 1(c), the evaluated configuration): the NVM MemTable is
  mutable.  While the DRAM MemTable is unavailable (its predecessor is
  still being flushed), writes go directly into the persistent skip list
  in place -- no stall, no WAL record needed, but each such write pays
  NVM pointer-chase and random-write costs.
- *hierarchical* (Figure 1(b)): the NVM MemTable only receives flushed
  immutable DRAM MemTables; writes block while the DRAM table flushes.

Either way, when the big NVM MemTable fills it is serialized into L0
SSTables.  That flush is large (the paper uses a 4 GB NVM MemTable) and
the L0-to-L1 compaction cannot keep up, which is where NoveLSM's massive
interval stalls come from.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.baselines.lsm import LeveledLSM
from repro.kvstore.api import KVStore
from repro.kvstore.memtable import MemTable, memtable_entries
from repro.kvstore.options import MB, StoreOptions
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
from repro.sstable.merge import merge_entry_streams


@dataclass
class NoveLSMOptions(StoreOptions):
    """NoveLSM adds a large NVM MemTable to the common options.

    The paper's ratio is a 4 GB NVM MemTable against a 64 MB DRAM
    MemTable; scaled down we default to 8x the DRAM MemTable.
    """

    nvm_memtable_bytes: int = 8 * MB
    mutable_nvm: bool = True


class NoveLSMStore(KVStore):
    """NoveLSM on a DRAM+NVM machine (SSTables on NVM or SSD)."""

    name = "novelsm"

    def __init__(
        self,
        system,
        options: Optional[NoveLSMOptions] = None,
        media: str = "nvm",
    ) -> None:
        super().__init__(system, options or NoveLSMOptions())
        if not self.options.mutable_nvm:
            self.name = "novelsm-hier"
        self.device = system.nvm if media == "nvm" else system.ssd
        if self.device is None:
            raise ValueError(f"system has no {media} device")
        self.rng = XorShiftRng(0x2073)
        self.wal = WriteAheadLog(
            system.nvm, f"{self.name}-wal",
            fsync_policy=self.options.fsync_policy, clock=system.clock,
        )
        self.dram_mt = MemTable(system, self.options.memtable_bytes, self.rng.fork())
        self.dram_imm: Optional[MemTable] = None
        self._dram_flush_job = None
        self.nvm_mt = MemTable(
            system, self.options.nvm_memtable_bytes, self.rng.fork(), placement="nvm"
        )
        self.nvm_imm: Optional[MemTable] = None
        self._nvm_chain_tail = None
        self.lsm = LeveledLSM(system, self.options, self.device, nworkers=1, label=self.name)
        self.dram_flush_worker = system.executor.worker(f"{self.name}-dram-flush")
        self.nvm_flush_worker = system.executor.worker(f"{self.name}-nvm-flush")

    # ------------------------------------------------------------ write path

    def _put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        seconds = 0.0
        if self.lsm.l0_table_count() >= self.options.l0_slowdown_tables:
            seconds += self._stall_delay(
                STALL_L0_SLOWDOWN, self.options.slowdown_delay_s
            )
        if not self.dram_mt.is_full:
            return seconds + self._dram_put(key, seq, value, value_bytes)

        dram_flush_busy = (
            self._dram_flush_job is not None and not self._dram_flush_job.done
        )
        if dram_flush_busy:
            if self.options.mutable_nvm:
                # Flat NoveLSM: bypass the busy DRAM buffer, update the
                # persistent skip list in place (no WAL needed).
                return seconds + self._nvm_direct_put(key, seq, value, value_bytes)
            stalled = self.system.executor.wait_for(self._dram_flush_job)
            self._stall_wait(STALL_MEMTABLE_FULL, stalled)
        self._wait_while_l0_stopped()
        self._rotate_dram()
        return seconds + self._dram_put(key, seq, value, value_bytes)

    def _dram_put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        seconds = 0.0
        if self.options.wal_enabled:
            seconds += self.wal.append(seq, key, value, value_bytes)
        seconds += self.dram_mt.insert(key, seq, value, value_bytes)
        return seconds

    def _nvm_direct_put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        seconds = self._ensure_nvm_room(len(key) + value_bytes + 64)
        seconds += self.nvm_mt.insert(key, seq, value, value_bytes)
        return seconds

    def _ensure_nvm_room(self, incoming: int) -> float:
        """Rotate the NVM MemTable if ``incoming`` bytes will not fit.

        Returns the foreground stall spent waiting for the previous NVM
        MemTable's flush chain -- the paper's dominant interval stall.
        """
        if self.nvm_mt.skiplist.footprint_bytes + incoming <= self.nvm_mt.capacity_bytes:
            return 0.0
        stalled = 0.0
        if self.nvm_imm is not None:
            if self._nvm_chain_tail is not None and not self._nvm_chain_tail.done:
                stalled = self.system.executor.wait_for(self._nvm_chain_tail)
                self._stall_wait(STALL_MEMTABLE_FULL, stalled)
        self._rotate_nvm()
        return stalled

    def _rotate_dram(self) -> None:
        old = self.dram_mt
        old.mark_immutable()
        self.dram_imm = old
        self.dram_mt = MemTable(self.system, self.options.memtable_bytes, self.rng.fork())
        self._dram_flush_job = self._schedule_dram_flush(old)

    def _schedule_dram_flush(self, table: MemTable):
        """Flush the immutable DRAM MemTable into the NVM skip list.

        Per the paper: each KV is located and copied one by one, paying an
        NVM pointer chase plus a random NVM write per pair (Section 3.1's
        slow flushing observation).
        """
        self._ensure_nvm_room(table.skiplist.footprint_bytes)
        entries = memtable_entries(table)
        seconds = 0.0
        # Entries arrive in the skip list's own order, so one monotone
        # cursor locates each; the charged hops are the from-head ones.
        cursor = self.nvm_mt.skiplist.cursor()
        with self.system.job_scope():
            for key, seq, value, value_bytes in entries:
                node, hops = cursor.insert(key, seq, value, value_bytes)
                seconds += self.system.cpu.skiplist_search_time("nvm", max(hops, 1))
                seconds += self.system.nvm.write(node.nbytes, sequential=False)
        last_seq = max((e[1] for e in entries), default=self.seq)

        def apply() -> None:
            table.release()
            if self.dram_imm is table:
                self.dram_imm = None
            if self.options.wal_enabled:
                self.wal.truncate_through(last_seq)

        self.system.stats.add("flush.count", 1)
        self.system.stats.add("flush.time_s", seconds)
        self.system.stats.add("flush.bytes", table.data_bytes)
        return self.system.executor.submit(
            self.dram_flush_worker, seconds, apply, name=f"{self.name}-dram-flush",
            meta={"cat": CAT_FLUSH, "bytes": table.data_bytes},
            # The NVM-side inserts happen synchronously at submit
            # (foreground-ordered); in flight only the frozen DRAM
            # MemTable is read.  Concurrent NVM-direct puts land in the
            # *active* NVM MemTable, a disjoint region by design.
            accesses=(("r", "memtable:imm"),),
        )

    def _rotate_nvm(self) -> None:
        old = self.nvm_mt
        old.mark_immutable()
        self.nvm_imm = old
        self.nvm_mt = MemTable(
            self.system,
            self.options.nvm_memtable_bytes,
            self.rng.fork(),
            placement="nvm",
        )
        self._schedule_nvm_flush(old)

    def _schedule_nvm_flush(self, table: MemTable) -> None:
        """Serialize the big NVM MemTable into a run of L0 SSTables."""
        entries = merge_entry_streams([memtable_entries(table)], drop_shadowed=False)
        chunks = self.lsm.split_entries(list(entries))
        tail = None
        for i, chunk in enumerate(chunks):
            chunk_bytes = sum(len(k) + vb for (k, __, __, vb) in chunk)
            with self.system.job_scope():
                seconds = self.system.nvm.read(chunk_bytes, sequential=True)
                sst, build_cost = self.lsm.build_table(chunk, f"{self.name}-L0-{i}")
            seconds += build_cost
            last = i == len(chunks) - 1

            def apply(sst=sst, last=last, table=table) -> None:
                self.lsm.add_table(0, sst)
                if last:
                    table.release()
                    if self.nvm_imm is table:
                        self.nvm_imm = None

            self.system.stats.add("flush.time_s", seconds)
            tail = self.system.executor.submit(
                self.nvm_flush_worker, seconds, apply, name=f"{self.name}-nvm-flush",
                meta={"cat": CAT_FLUSH, "bytes": chunk_bytes},
                # Each chunk job reads the immutable NVM MemTable only.
                accesses=(("r", "memtable:nvm-imm"),),
            )
        self.system.stats.add("flush.count", 1)
        self.system.stats.add("flush.bytes", table.data_bytes)
        self._nvm_chain_tail = tail

    def _wait_while_l0_stopped(self) -> None:
        while self.lsm.l0_table_count() >= self.options.l0_stop_tables:
            self.lsm.maybe_compact()
            deadline = self.system.executor.next_completion()
            if deadline is None:
                raise RuntimeError("L0 stopped with no background work pending")
            before = self.system.clock.now
            self.system.clock.advance_to(deadline)
            self.system.executor.settle()
            self._stall_wait(STALL_L0_STOP, self.system.clock.now - before)

    # ------------------------------------------------------------- read path

    def _batch_lookup(self):
        tables = tuple(
            t
            for t in (self.dram_mt, self.dram_imm, self.nvm_mt, self.nvm_imm)
            if t is not None
        )
        lsm_get = self.lsm.get

        def lookup(key):
            seconds = 0.0
            best = None
            for table in tables:
                node, cost = table.get(key)
                seconds += cost
                if node is not None and (best is None or node.seq > best.seq):
                    best = node
            if best is not None:
                return (None if best.is_tombstone else best.value), seconds
            entry, cost = lsm_get(key)
            seconds += cost
            if entry is None:
                return None, seconds
            value = entry[2]
            return (None if value is TOMBSTONE else value), seconds

        return lookup

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        seconds = 0.0
        best = None
        for table in (self.dram_mt, self.dram_imm, self.nvm_mt, self.nvm_imm):
            if table is None:
                continue
            node, cost = table.get(key)
            seconds += cost
            if node is not None and (best is None or node.seq > best.seq):
                best = node
        if best is not None:
            return (None if best.is_tombstone else best.value), seconds
        entry, cost = self.lsm.get(key)
        seconds += cost
        if entry is None:
            return None, seconds
        value = entry[2]
        return (None if value is TOMBSTONE else value), seconds

    def _scan(self, start_key: bytes, count: int):
        sources = memtable_sources(
            self.dram_mt, self.dram_imm, self.nvm_mt, self.nvm_imm
        )
        sources.extend(self.lsm.scan_sources(start_key))
        return merged_scan(self.system, start_key, count, sources)
