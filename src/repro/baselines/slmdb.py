"""SLM-DB: single-level LSM with a persistent B+-tree index (FAST'19).

The paper discusses SLM-DB as prior art (Sections 1 and 6): it keeps a
*single* level of SSTables plus a B+-tree in NVM that maps every key to
its table, so point reads go straight to the right table.  Its
weaknesses, which the paper calls out and this implementation exhibits:

- compaction must rewrite B+-tree index entries for every moved key, so
  it is expensive;
- because index order must be preserved, flushing and compaction cannot
  run in parallel (one background worker serialises them), so write
  bursts stall;
- selective compaction picks candidate tables by key-range overlap,
  and the selection itself costs time when the candidate list grows.
"""

from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.btree.tree import NODE_BYTES, BPlusTree
from repro.kvstore.buffered import BufferedStore, submit_compaction
from repro.kvstore.memtable import MemTable, memtable_entries
from repro.kvstore.options import StoreOptions
from repro.kvstore.scans import memtable_sources, merged_scan
from repro.persist.arena import Arena
from repro.skiplist.node import TOMBSTONE
from repro.sstable.merge import merge_entry_streams
from repro.sstable.table import SSTable, build_sstable

#: Fan-out of the NVM B+-tree index.
BTREE_ORDER = 64

#: Selective compaction starts when live tables exceed this count.
COMPACTION_TRIGGER_TABLES = 8

#: Selective compaction merges at most this many tables.
COMPACTION_FANIN = 4


class SLMDBStore(BufferedStore):
    """Single-level SSTables + NVM B+-tree index."""

    name = "slmdb"

    def __init__(self, system, options: Optional[StoreOptions] = None) -> None:
        super().__init__(system, options or StoreOptions(), 0x51DB, system.nvm)
        self.tables: List[SSTable] = []
        self.index = BPlusTree(BTREE_ORDER)
        self.index_arena = Arena(system.nvm, 0, f"{self.name}-index")
        # One worker for BOTH flushing and compaction: index order must
        # be preserved, so they cannot overlap (the paper's criticism).
        self.worker = self.flush_worker = system.executor.worker(
            f"{self.name}-background"
        )

    # ------------------------------------------------------------ write path

    def _schedule_flush(self, table: MemTable):
        """Serialize the MemTable into one L1 table and index every key."""
        entries = merge_entry_streams([memtable_entries(table)])
        with self.system.job_scope():
            seconds = self.system.dram.read(table.data_bytes, sequential=True)
            sst, build_cost = build_sstable(
                entries, self.system.nvm, self.system.cpu, f"{self.name}-L1"
            )
            seconds += build_cost
            self.system.stats.add(
                "serialize.time_s", self.system.cpu.serialize_time(sst.data_bytes)
            )
            # B+-tree updates: one insert per key, each an NVM pointer chase
            # plus an in-place node write (this is what makes SLM-DB's
            # flush+compaction path slow).
            nodes_before = self.index.node_count
            seconds = self._index_run(seconds, entries, sst)
        self._grow_index_arena(nodes_before)

        def apply() -> None:
            self.tables.append(sst)
            self._retire(table)
            self._maybe_compact()

        # Only the rotated MemTable is read while in flight; the B+-tree
        # index was already updated synchronously above.
        return self._submit_flush(table, seconds, apply, f"{self.name}-flush")

    def _grow_index_arena(self, nodes_before: int) -> None:
        grown = self.index.node_count - nodes_before
        if grown > 0:
            self.index_arena.grow(grown * NODE_BYTES)

    def _index_run(
        self, seconds: float, entries, sst: SSTable, unindex: bool = False
    ) -> float:
        """Point the index at ``sst`` for each entry; returns ``seconds``
        plus the NVM pointer chases and node writes.

        A locator installed by a more recent flush is never overwritten:
        compactions re-index old versions.  With ``unindex`` a tombstone
        (which the compaction drops) removes its key's entry instead.
        """
        hop = self.system.nvm.hop_time()
        write = self.system.nvm.write
        index = self.index
        for key, seq, value, __vb in entries:
            if unindex and value is TOMBSTONE:
                current, visits = index.get(key)
                seconds += visits * hop
                if current is not None and current[1] <= seq:
                    __, visits = index.delete(key)
                    seconds += visits * hop + write(64, False)
                continue
            visits, writes = index.insert(key, (sst, seq), keep_newer=True)
            chase = visits * hop
            if writes:
                # charged as the get plus the insert the update fuses
                seconds += chase + (chase + write(writes * 64, False))
            else:
                seconds += chase
        return seconds

    # ------------------------------------------------------------ compaction

    def _maybe_compact(self) -> None:
        if len(self.tables) <= COMPACTION_TRIGGER_TABLES:
            return
        if self.worker.busy_until > self.system.clock.now:
            return
        self._schedule_compaction()

    def _pick_candidates(self) -> List[SSTable]:
        """Selective compaction: the tables with the most range overlap.

        The scan over the candidate list is itself charged (the paper
        notes the selection gets costly as the list grows).
        """
        scored = []
        for table in self.tables:
            overlap = sum(
                1
                for other in self.tables
                if other is not table
                and other.overlaps(table.min_key, table.max_key)
            )
            scored.append((overlap, table.table_id, table))
        scored.sort(reverse=True)
        return [t for __, __id, t in scored[:COMPACTION_FANIN]]

    def _schedule_compaction(self) -> None:
        candidates = self._pick_candidates()
        if len(candidates) < 2:
            return
        with self.system.job_scope():
            seconds = len(self.tables) * self.system.cpu.COMPARE_COST * 8  # selection
            streams = []
            for table in candidates:
                entries, cost = table.scan_all(self.system.cpu)
                seconds += cost
                streams.append(entries)
            newest = merge_entry_streams(streams)
            # A tombstone may only be dropped when every older version of its
            # key is inside this compaction; with other tables live in the
            # single level, the tombstone must survive to keep shadowing them.
            dropping_all = len(candidates) == len(self.tables)
            if dropping_all:
                merged = [e for e in newest if e[2] is not TOMBSTONE]
            else:
                merged = newest
            if not merged:
                return
            sst, build_cost = build_sstable(
                merged, self.system.nvm, self.system.cpu, f"{self.name}-compact"
            )
            seconds += build_cost
            nodes_before = self.index.node_count
            seconds = self._index_run(seconds, newest, sst, unindex=dropping_all)
        self._grow_index_arena(nodes_before)
        candidate_ids = {t.table_id for t in candidates}

        def apply() -> None:
            self.tables = [t for t in self.tables if t.table_id not in candidate_ids]
            self.tables.append(sst)
            for table in candidates:
                table.release()
            self.system.stats.add("compact.count", 1)
            self._maybe_compact()

        submit_compaction(
            self.system, self.worker, seconds, apply, f"{self.name}-compact",
            level=1, bytes=sum(t.data_bytes for t in candidates),
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
        locator, visits = self.index.get(key)
        seconds += visits * self.system.nvm.hop_time()
        if locator is None:
            return None, seconds
        sst, __seq = locator
        entry, cost = sst.get(key, self.system.cpu, self.system.stats)
        return (None if entry is None else entry[2]), seconds + cost

    def _scan(self, start_key: bytes, count: int):
        sources = memtable_sources(self.memtable, self.immutable)
        sources.extend(
            (table.entries, bisect_left(table.keys, start_key), self.system.nvm)
            for table in self.tables
            if not table.released and table.max_key >= start_key
        )
        return merged_scan(self.system, start_key, count, sources)
