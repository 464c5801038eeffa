"""The MioDB store: one-piece flushing into an elastic PMTable buffer.

Write path: WAL append (NVM, sequential) -> DRAM MemTable insert.  When
the MemTable fills, the whole arena is copied to NVM with one ``memcpy``
and pointers are swizzled in the background while the DRAM copy still
serves reads (Section 4.2).  The elastic buffer has no capacity limits,
so -- unlike every baseline -- flushing is effectively never blocked and
write stalls disappear.

Read path: MemTable -> immutable MemTable -> elastic buffer levels
(younger tables first, gated by per-PMTable bloom filters) -> the data
repository.  The first hit is the newest version because tables and
levels are strictly age-ordered.
"""

from typing import List, Optional, Tuple

from repro.bloom.filter import BloomFilter
from repro.core.compaction import CompactionManager
from repro.core.options import MioOptions
from repro.core.pmtable import PMTable
from repro.core.repository import NvmRepository, SsdRepository
from repro.kvstore.api import KVStore
from repro.kvstore.memtable import MemTable
from repro.kvstore.scans import memtable_sources, merged_scan
from repro.kvstore.values import value_nbytes
from repro.obs.events import CAT_FLUSH, STALL_BUFFER_CAP, STALL_MEMTABLE_FULL
from repro.persist.arena import Arena
from repro.persist.crash import PASSIVE_INJECTOR
from repro.persist.wal import WriteAheadLog
from repro.sim.rng import XorShiftRng
from repro.skiplist.node import TOMBSTONE


class MioDB(KVStore):
    """LSM-style KV store for hybrid DRAM/NVM memory (the paper's system)."""

    name = "miodb"

    def __init__(
        self,
        system,
        options: Optional[MioOptions] = None,
        crash_injector=None,
    ) -> None:
        super().__init__(system, options or MioOptions())
        self.crash = crash_injector or PASSIVE_INJECTOR
        self.rng = XorShiftRng(0x111D)
        self.wal = WriteAheadLog(
            system.nvm, "miodb-wal",
            fsync_policy=self.options.fsync_policy, clock=system.clock,
        )
        self.memtable = MemTable(system, self.options.memtable_bytes, self.rng.fork())
        self.immutable: Optional[MemTable] = None
        self._flush_tail = None
        self._inflight_pmtable: Optional[PMTable] = None
        self._bloom_geometry = None
        self.levels: List[List[PMTable]] = [
            [] for __ in range(self.options.num_levels)
        ]
        if self.options.ssd_mode:
            self.repository = SsdRepository(system, self.options)
        else:
            self.repository = NvmRepository(system)
        self.compactor = CompactionManager(self)
        self.flush_worker = system.executor.worker("miodb-flush")

    # ------------------------------------------------------------ write path

    def _put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        seconds = 0.0
        if self.memtable.is_full:
            if self._flush_tail is not None and not self._flush_tail.done:
                stalled = self.system.executor.wait_for(self._flush_tail)
                self._stall_wait(STALL_MEMTABLE_FULL, stalled)
            self._respect_buffer_cap()
            self._rotate_memtable()
        if self.options.wal_enabled:
            seconds += self.wal.append(seq, key, value, value_bytes)
            self.crash.reach("put.after_wal")
        seconds += self.memtable.insert(key, seq, value, value_bytes)
        return seconds

    def _respect_buffer_cap(self) -> None:
        cap = self.options.max_nvm_buffer_bytes
        if cap is None:
            return
        while self.elastic_buffer_bytes() + self.options.memtable_bytes > cap:
            self.compactor.check()
            deadline = self.system.executor.next_completion()
            if deadline is None:
                if not self.compactor.force_progress():
                    raise RuntimeError("NVM buffer cap hit with nothing to drain")
                deadline = self.system.executor.next_completion()
                if deadline is None:
                    raise RuntimeError("NVM buffer cap hit with no background work")
            before = self.system.clock.now
            self.system.clock.advance_to(deadline)
            self.system.executor.settle()
            self._stall_wait(STALL_BUFFER_CAP, self.system.clock.now - before)

    def _rotate_memtable(self) -> None:
        old = self.memtable
        old.mark_immutable()
        self.immutable = old
        self.memtable = MemTable(
            self.system, self.options.memtable_bytes, self.rng.fork()
        )
        self._flush_tail = self._schedule_flush(old)

    def _schedule_flush(self, table: MemTable):
        """One-piece flush + background pointer swizzling (Section 4.2)."""
        # A MemTable may overshoot its budget by its final entry; the
        # PMTable arena covers whichever is larger.
        arena = Arena(
            self.system.nvm,
            max(table.capacity_bytes, table.skiplist.footprint_bytes),
            self.system.now,
            f"pmtable-{table.table_id}",
        )
        bloom = None
        if self.options.use_blooms:
            bloom = self._make_bloom(len(table.skiplist))
        pmtable = PMTable(self.system, table.skiplist, [arena], bloom, level=0)
        self._inflight_pmtable = pmtable

        # One pass over the table's nodes gathers everything the flush
        # needs -- bloom keys, pointer count, entry count, and the WAL
        # truncation horizon (previously three separate iterations).
        # An empty table (never produced by the put path, which only
        # rotates a *full* MemTable, but reachable via direct calls)
        # degenerates to last_seq = self.seq and a zero-work flush.
        entries = 0
        pointers = 0
        last_seq = None
        with self.system.job_scope():
            if self.options.one_piece_flush:
                bloom_keys = [] if bloom is not None else None
                for node in table.skiplist.nodes():
                    entries += 1
                    pointers += node.height
                    if last_seq is None or node.seq > last_seq:
                        last_seq = node.seq
                    if bloom_keys is not None:
                        bloom_keys.append(node.key)
                if bloom_keys:
                    bloom.add_all(bloom_keys)
                copy_seconds = self.system.dram.read(
                    table.capacity_bytes, sequential=True
                )
                copy_seconds += self.system.nvm.write(
                    table.capacity_bytes, sequential=True
                )
                swizzle_seconds = 0.0
                if pointers:
                    swizzle_seconds += self.system.nvm.write(
                        8 * pointers, sequential=False
                    )
                    swizzle_seconds += (
                        pointers - 1
                    ) * self.system.nvm.profile.write_latency
                swizzle_seconds += self.system.cpu.bloom_build_time(entries)
            else:
                # Ablation: NoveLSM-style per-KV copy+insert into NVM.
                copy_seconds = 0.0
                for node in table.skiplist.nodes():
                    entries += 1
                    if last_seq is None or node.seq > last_seq:
                        last_seq = node.seq
                    if bloom is not None:
                        bloom.add(node.key)
                    hops = max(1, node.height * 3)
                    copy_seconds += self.system.cpu.skiplist_search_time("nvm", hops)
                    copy_seconds += self.system.nvm.write(
                        node.nbytes, sequential=False
                    )
                swizzle_seconds = self.system.cpu.bloom_build_time(entries)

        if last_seq is None:
            last_seq = self.seq

        def copy_done() -> None:
            self.crash.reach("flush.after_copy")

        def swizzle_done() -> None:
            self.crash.reach("flush.after_swizzle")
            pmtable.swizzled = True
            if self._inflight_pmtable is pmtable:
                self._inflight_pmtable = None
            self.levels[0].append(pmtable)
            table.release()
            if self.immutable is table:
                self.immutable = None
            if self.options.wal_enabled:
                self.wal.truncate_through(last_seq)
            self.compactor.check()

        self.system.stats.add("flush.count", 1)
        self.system.stats.add("flush.time_s", copy_seconds)
        self.system.stats.add("flush.bytes", table.data_bytes)
        self.system.stats.add("swizzle.time_s", swizzle_seconds)
        self.system.executor.submit(
            self.flush_worker, copy_seconds, copy_done,
            name="miodb-one-piece-flush",
            meta={"cat": CAT_FLUSH, "bytes": table.data_bytes, "entries": entries},
            # One-piece flush reads the rotated immutable MemTable.
            accesses=(("r", "memtable:imm"),),
        )
        return self.system.executor.submit(
            self.flush_worker, swizzle_seconds, swizzle_done,
            name="miodb-swizzle",
            meta={"cat": CAT_FLUSH, "phase": "swizzle", "pointers": pointers},
            # Swizzling rewrites the PMTable's not-yet-published
            # pointers; readers only follow already-swizzled (8-byte
            # atomic) words, so the unswizzled region is job-private.
            accesses=(("w", "pmtable:unswizzled"),),
        )

    def _make_bloom(self, entry_count: int) -> BloomFilter:
        """A bloom filter with the store's fixed geometry.

        Every PMTable's filter must share one geometry so compaction can
        OR-merge them (paper Section 4.6): the first flush fixes it at
        ``bloom_bits_per_key`` bits per key of one MemTable.  Merged
        tables therefore see fewer effective bits per key, which is what
        eventually caps the useful level count (Figure 9).
        """
        if self._bloom_geometry is None:
            capacity = max(1, entry_count) * self.options.bloom_capacity_tables
            probe = BloomFilter.for_capacity(
                capacity, self.options.bloom_bits_per_key
            )
            self._bloom_geometry = (probe.nbits, probe.k)
        nbits, k = self._bloom_geometry
        return BloomFilter(nbits, k)

    def write(self, batch) -> float:
        """Apply a :class:`~repro.kvstore.batch.WriteBatch` atomically.

        The whole batch lands in the WAL under one commit marker, so a
        crash before the commit record surfaces none of it after
        recovery (tested by tearing the log tail mid-batch).
        """
        if batch.is_empty:
            return 0.0
        self.system.executor.settle()
        start = self.system.clock.now
        items = []
        user_bytes = 0
        for op, key, value in batch.ops:
            self._require_key(key)
            self.seq += 1
            if op == "put":
                nbytes = value_nbytes(value)
            else:
                value, nbytes = TOMBSTONE, 0
            items.append((self.seq, key, value, nbytes))
            user_bytes += len(key) + nbytes
        seconds = 0.0
        if self.options.wal_enabled:
            seconds += self.wal.append_batch(items)
            self.crash.reach("write.after_wal_batch")
        for seq, key, value, nbytes in items:
            if self.memtable.is_full:
                if self._flush_tail is not None and not self._flush_tail.done:
                    stalled = self.system.executor.wait_for(self._flush_tail)
                    self._stall_wait(STALL_MEMTABLE_FULL, stalled)
                self._respect_buffer_cap()
                self._rotate_memtable()
            seconds += self.memtable.insert(key, seq, value, nbytes)
        self.system.stats.add("user.bytes_written", user_bytes)
        self.system.stats.add("op.batch", 1)
        return self._finish("batch", start, seconds)

    # ------------------------------------------------------------- read path

    def _batch_lookup(self):
        tables = tuple(
            t for t in (self.memtable, self.immutable) if t is not None
        )
        # One entry per PMTable in probe order, with the bloom gate
        # pre-resolved: probe costs are pure functions of the filter
        # geometry, and a saturated (or absent) filter always passes.
        # Filters only change via settled background callbacks, after
        # which multi_get requests a fresh closure.
        cpu = self.system.cpu
        gated = []
        for level_tables in self.levels:
            for pmtable in reversed(level_tables):
                bloom = pmtable.bloom
                if bloom is None or bloom.saturation > 0.9:
                    gated.append((None, 0.0, 0.0, pmtable.get))
                else:
                    gated.append((
                        bloom.may_contain,
                        cpu.bloom_probe_time(bloom.k),
                        cpu.bloom_probe_time(2),
                        pmtable.get,
                    ))
        repo_get = self.repository.get

        def lookup(key):
            seconds = 0.0
            for table in tables:
                node, cost = table.get(key)
                seconds += cost
                if node is not None:
                    return (None if node.is_tombstone else node.value), seconds
            for may_contain, hit_cost, miss_cost, table_get in gated:
                if may_contain is not None:
                    if may_contain(key):
                        seconds += hit_cost
                    else:
                        seconds += miss_cost
                        continue
                node, cost = table_get(key)
                seconds += cost
                if node is not None:
                    return (None if node.is_tombstone else node.value), seconds
            value, cost = repo_get(key)
            seconds += cost
            if value is None or value is TOMBSTONE:
                return None, seconds
            return value, seconds

        return lookup

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        seconds = 0.0
        for table in (self.memtable, self.immutable):
            if table is None:
                continue
            node, cost = table.get(key)
            seconds += cost
            if node is not None:
                return (None if node.is_tombstone else node.value), seconds
        for level_tables in self.levels:
            for pmtable in reversed(level_tables):
                possible, probe_cost = pmtable.may_contain(key)
                seconds += probe_cost
                if not possible:
                    continue
                node, cost = pmtable.get(key)
                seconds += cost
                if node is not None:
                    return (None if node.is_tombstone else node.value), seconds
        value, cost = self.repository.get(key)
        seconds += cost
        if value is None or value is TOMBSTONE:
            return None, seconds
        return value, seconds

    def _scan(self, start_key: bytes, count: int):
        sources = memtable_sources(self.memtable, self.immutable)
        for level_tables in self.levels:
            sources.extend((pmtable.skiplist, "nvm") for pmtable in level_tables)
        sources.extend(self.repository.scan_sources(start_key))
        return merged_scan(self.system, start_key, count, sources)

    # ------------------------------------------------------------- reporting

    def elastic_buffer_bytes(self) -> int:
        """NVM bytes currently held by buffer PMTables (arenas)."""
        return sum(t.footprint_bytes for level in self.levels for t in level)

    def level_table_counts(self) -> List[int]:
        """PMTables per buffer level, for diagnostics."""
        return [len(level) for level in self.levels]

    def __repr__(self) -> str:
        return (
            f"MioDB(levels={self.level_table_counts()}, "
            f"repo={self.repository.entry_count} keys)"
        )
