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
from typing import Optional, Tuple

from repro.baselines.lsm import L0Backpressure, LeveledLSM
from repro.kvstore.buffered import BufferedStore
from repro.kvstore.memtable import MemTable, memtable_entries
from repro.kvstore.options import MB, StoreOptions
from repro.kvstore.scans import memtable_sources, merged_scan
from repro.obs.events import CAT_FLUSH
from repro.skiplist.node import NODE_OVERHEAD_BYTES


@dataclass
class NoveLSMOptions(StoreOptions):
    """NoveLSM adds a large NVM MemTable to the common options.

    The paper's ratio is a 4 GB NVM MemTable against a 64 MB DRAM
    MemTable; scaled down we default to 8x the DRAM MemTable.
    """

    nvm_memtable_bytes: int = 8 * MB
    mutable_nvm: bool = True


class NoveLSMStore(L0Backpressure, BufferedStore):
    """NoveLSM on a DRAM+NVM machine (SSTables on NVM or SSD)."""

    name = "novelsm"

    def __init__(self, system, options: Optional[NoveLSMOptions] = None) -> None:
        options = options or NoveLSMOptions()
        if options.mutable_nvm:
            self.unlogged_writes = (
                "flat NoveLSM acknowledges NVM-direct writes that never "
                "enter the WAL the group ships"
            )
        else:
            self.name = "novelsm-hier"
        self.device = system.bottom_tier
        # First, so a refused level count leaves no memory taken.
        self.lsm = LeveledLSM(system, options, self.device, nworkers=1, label=self.name)
        super().__init__(system, options, 0x2073, system.nvm)
        self.nvm_mt = MemTable(
            system, self.options.nvm_memtable_bytes, self.rng.fork(), system.nvm
        )
        self.nvm_imm: Optional[MemTable] = None
        self._nvm_chain_tail = None
        #: Newest NVM-direct seq per key.  The full DRAM MemTable a direct
        #: put bypassed holds older versions, and it can reach a MemTable
        #: younger than the one holding the direct write, which may by
        #: then be in L0: a MemTable hit older than this seq is stale.
        self._direct_seq = {}
        self.flush_worker = system.executor.worker(f"{self.name}-dram-flush")
        self.nvm_flush_worker = system.executor.worker(f"{self.name}-nvm-flush")

    # ------------------------------------------------------------ write path

    def _put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        # The slowdown is added to the finished put cost here rather than
        # seeding the skeleton's sum (its ``_write_delay`` stays 0.0):
        # float addition does not associate, and results are pinned.
        seconds = self._l0_slowdown()
        if self.options.mutable_nvm and self.memtable.is_full and self._flush_busy:
            # Flat NoveLSM: bypass the busy DRAM buffer, update the
            # persistent skip list in place (no WAL needed).
            return seconds + self._nvm_direct_put(key, seq, value, value_bytes)
        return seconds + super()._put(key, seq, value, value_bytes)

    def _nvm_direct_put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        seconds = self._ensure_nvm_room(len(key) + value_bytes + NODE_OVERHEAD_BYTES)
        seconds += self.nvm_mt.insert(key, seq, value, value_bytes)
        self._direct_seq[key] = seq
        return seconds

    def _ensure_nvm_room(self, incoming: int) -> float:
        """Rotate the NVM MemTable if ``incoming`` bytes will not fit.

        Returns the foreground stall spent waiting for the previous NVM
        MemTable's flush chain -- the paper's dominant interval stall.
        """
        if self.nvm_mt.skiplist.footprint_bytes + incoming <= self.nvm_mt.capacity_bytes:
            return 0.0
        stalled = self._await_flush(self._nvm_chain_tail)
        self._rotate_nvm()
        return stalled

    def _schedule_flush(self, table: MemTable):
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
        search_time = self.system.nvm.search_time
        write = self.system.nvm.write
        with self.system.job_scope():
            for key, seq, value, value_bytes in entries:
                node, hops = cursor.insert(key, seq, value, value_bytes)
                seconds += search_time(max(hops, 1))
                seconds += write(node.nbytes, False)

        # The NVM-side inserts happened synchronously above (foreground-
        # ordered); in flight only the frozen DRAM MemTable is read.
        # Concurrent NVM-direct puts land in the *active* NVM MemTable,
        # a disjoint region by design.
        return self._submit_flush(
            table, seconds, lambda: self._retire(table),
            f"{self.name}-dram-flush",
        )

    def _rotate_nvm(self) -> None:
        old = self.nvm_imm = self.nvm_mt
        self.nvm_mt = old.rotate(self.rng)
        self._schedule_nvm_flush(old)

    def _schedule_nvm_flush(self, table: MemTable) -> None:
        """Serialize the big NVM MemTable into a run of L0 SSTables."""
        chunks = self.lsm.split_entries(memtable_entries(table))
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
            )
        self.system.stats.add("flush.count", 1)
        self.system.stats.add("flush.bytes", table.data_bytes)
        self._nvm_chain_tail = tail

    # ------------------------------------------------------------- read path

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        seconds = 0.0
        best = None
        for table in (self.memtable, self.immutable, self.nvm_mt, self.nvm_imm):
            if table is None:
                continue
            node, cost = table.get(key)
            seconds += cost
            if node is not None and (best is None or node.seq > best.seq):
                best = node
        if best is not None and best.seq >= self._direct_seq.get(key, 0):
            return best.value, seconds
        # No MemTable hit, or a stale one: the newest version is in L0.
        entry, cost = self.lsm.get(key)
        return (None if entry is None else entry[2]), seconds + cost

    def _scan(self, start_key: bytes, count: int):
        sources = memtable_sources(
            self.memtable, self.immutable, self.nvm_mt, self.nvm_imm
        )
        sources.extend(self.lsm.scan_sources(start_key))
        return merged_scan(self.system, start_key, count, sources)
