"""LevelDB-style KV store: DRAM MemTable + leveled SSTables.

This is the classic design (paper Figure 1(a)) that everything else
modifies.  Its write path exhibits both stall kinds the paper measures:

- *interval stalls*: the MemTable fills while the immutable MemTable is
  still being flushed (writes block until the flush completes), and L0
  reaching the stop threshold blocks writes outright;
- *cumulative stalls*: L0 reaching the slowdown threshold adds a fixed
  delay to every write.
"""

from typing import Optional, Tuple

from repro.baselines.lsm import L0Backpressure, LeveledLSM
from repro.kvstore.buffered import BufferedStore
from repro.kvstore.memtable import MemTable, memtable_entries
from repro.kvstore.options import StoreOptions
from repro.kvstore.scans import memtable_sources, merged_scan


class LevelDBStore(L0Backpressure, BufferedStore):
    """The reference leveled-LSM engine on a single persistent device."""

    name = "leveldb"

    def __init__(self, system, options: Optional[StoreOptions] = None) -> None:
        options = options or StoreOptions()
        self.device = system.bottom_tier
        # First, so a refused level count leaves no memory taken.
        self.lsm = LeveledLSM(system, options, self.device, nworkers=1, label=self.name)
        super().__init__(system, options, 0x1EAF, self.device)
        self.flush_worker = system.executor.worker(f"{self.name}-flush")

    # ------------------------------------------------------------ write path

    _write_delay = L0Backpressure._l0_slowdown

    def _schedule_flush(self, table: MemTable):
        entries = memtable_entries(table)
        with self.system.job_scope():
            seconds = self.system.dram.read(table.data_bytes, sequential=True)
            sst, build_cost = self.lsm.build_table(entries, f"{self.name}-L0")
        seconds += build_cost

        def apply() -> None:
            self.lsm.add_table(0, sst)
            self._retire(table)

        return self._submit_flush(table, seconds, apply, f"{self.name}-flush")

    # ------------------------------------------------------------- read path

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        # A quirk the golden benchmarks/results/ pin: the probe cost of a
        # table that misses is discarded, not accumulated.
        for table in (self.memtable, self.immutable):
            if table is None:
                continue
            node, cost = table.get(key)
            if node is not None:
                return node.value, cost
        entry, cost = self.lsm.get(key)
        return (None if entry is None else entry[2]), cost

    def _scan(self, start_key: bytes, count: int):
        sources = memtable_sources(self.memtable, self.immutable)
        sources.extend(self.lsm.scan_sources(start_key))
        return merged_scan(self.system, start_key, count, sources)
