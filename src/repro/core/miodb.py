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

import math
from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.bloom.filter import BloomFilter
from repro.bloom.hashing import probe_positions
from repro.core.compaction import CompactionManager
from repro.core.options import MioOptions
from repro.core.pmtable import PMTable
from repro.core.repository import NvmRepository, SsdRepository
from repro.kvstore.api import require_key
from repro.kvstore.buffered import BufferedStore
from repro.kvstore.memtable import MemTable
from repro.kvstore.scans import MergedView, memtable_sources
from repro.kvstore.values import value_nbytes
from repro.obs.events import CAT_FLUSH, STALL_BUFFER_CAP
from repro.persist.arena import Arena
from repro.skiplist.node import TOMBSTONE

#: Bits per key of every PMTable's bloom filter (paper: 16).
BLOOM_BITS_PER_KEY = 16

#: MemTables' worth of keys the one filter geometry is sized for.
BLOOM_CAPACITY_TABLES = 16


class MioDB(BufferedStore):
    """LSM-style KV store for hybrid DRAM/NVM memory (the paper's system)."""

    name = "miodb"

    def __init__(
        self,
        system,
        options: Optional[MioOptions] = None,
        crash_injector=None,
    ) -> None:
        options = options or MioOptions()
        if options.num_levels < 1:
            raise ValueError(f"MioDB needs num_levels >= 1, got {options.num_levels}")
        # First, so a level count the SSD repository refuses leaves no
        # memory taken.
        if system.bottom_tier is system.nvm:
            self.repository = NvmRepository(system)
        else:
            self.repository = SsdRepository(system, options)
        super().__init__(system, options, 0x111D, system.nvm, crash_injector)
        self._inflight_pmtable: Optional[PMTable] = None
        self._bloom_geometry = None
        self.levels: List[List[PMTable]] = [
            [] for __ in range(self.options.num_levels)
        ]
        self.compactor = CompactionManager(self)
        self.flush_worker = system.executor.worker("miodb-flush")
        #: Serves scans while the store's sources stand still.
        self.merged_view = MergedView()

    # ------------------------------------------------------------ write path

    def _rotate_gate(self) -> None:
        """Hold rotation while the elastic buffer is at its NVM cap."""
        cap = self.options.max_nvm_buffer_bytes
        if cap is not None:
            self._stall_until(
                STALL_BUFFER_CAP,
                lambda: self.elastic_buffer_bytes() + self.options.memtable_bytes > cap,
                self._drain_buffer,
            )

    def _drain_buffer(self) -> None:
        self.compactor.check()
        if (
            self.system.executor.next_due == math.inf
            and not self.compactor.force_progress()
        ):
            raise RuntimeError("NVM buffer cap hit with nothing to drain")

    def _schedule_flush(self, table: MemTable):
        """One-piece flush + background pointer swizzling (Section 4.2)."""
        # A MemTable may overshoot its budget by its final entry; the
        # PMTable arena covers whichever is larger.
        arena = Arena(
            self.system.nvm,
            max(table.capacity_bytes, table.skiplist.footprint_bytes),
            f"pmtable-{table.table_id}",
        )
        bloom = None
        if self.options.use_blooms:
            bloom = self._make_bloom(len(table.skiplist))
        pmtable = PMTable(self.system, table.skiplist, [arena], bloom, level=0)
        self._inflight_pmtable = pmtable

        # One pass over the table's nodes gathers everything the flush
        # needs -- bloom keys, pointer count and entry count.  An empty
        # table (never produced by the put path, which only rotates a
        # *full* MemTable, but reachable via direct calls) degenerates
        # to a zero-work flush.
        entries = 0
        pointers = 0
        with self.system.job_scope():
            if self.options.one_piece_flush:
                bloom_keys = [] if bloom is not None else None
                for node in table.skiplist.nodes():
                    entries += 1
                    pointers += node.height
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
                swizzle_seconds = self.system.nvm.write_words(pointers, 0.0)
                swizzle_seconds += self.system.cpu.bloom_build_time(entries)
            else:
                # Ablation: NoveLSM-style per-KV copy+insert into NVM.
                copy_seconds = 0.0
                for node in table.skiplist.nodes():
                    entries += 1
                    if bloom is not None:
                        bloom.add(node.key)
                    hops = max(1, node.height * 3)
                    copy_seconds += self.system.nvm.search_time(hops)
                    copy_seconds += self.system.nvm.write(
                        node.nbytes, sequential=False
                    )
                swizzle_seconds = self.system.cpu.bloom_build_time(entries)

        def copy_done() -> None:
            self.crash.reach("flush.after_copy")

        def swizzle_done() -> None:
            self.crash.reach("flush.after_swizzle")
            pmtable.swizzled = True
            if self._inflight_pmtable is pmtable:
                self._inflight_pmtable = None
            self.levels[0].append(pmtable)
            self._retire(table)
            self.compactor.check()

        self._submit_flush(
            table, copy_seconds, copy_done, "miodb-one-piece-flush", entries=entries
        )
        self.system.stats.add("swizzle.time_s", swizzle_seconds)
        return self.system.executor.submit(
            self.flush_worker, swizzle_seconds, swizzle_done,
            name="miodb-swizzle",
            meta={"cat": CAT_FLUSH, "phase": "swizzle", "pointers": pointers},
        )

    def _make_bloom(self, entry_count: int) -> BloomFilter:
        """A bloom filter with the store's fixed geometry.

        Every PMTable's filter must share one geometry so compaction can
        OR-merge them (paper Section 4.6): the first flush fixes it at
        ``BLOOM_BITS_PER_KEY`` bits per key over ``BLOOM_CAPACITY_TABLES``
        times that flush's entry count.  Tables merged from more
        MemTables than that see fewer effective bits per key, which is
        what eventually caps the useful level count (Figure 9).
        """
        if self._bloom_geometry is None:
            capacity = max(1, entry_count) * BLOOM_CAPACITY_TABLES
            probe = BloomFilter.for_capacity(capacity, BLOOM_BITS_PER_KEY)
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
            require_key(key)
            self.seq += 1
            if op == "put":
                nbytes = value_nbytes(value)
            else:
                value, nbytes = TOMBSTONE, 0
            items.append((self.seq, key, value, nbytes))
            user_bytes += len(key) + nbytes
        seconds = self.wal.append_batch(items)
        self.crash.reach("write.after_wal_batch")
        for seq, key, value, nbytes in items:
            seconds += self.stage_logged(key, seq, value, nbytes, stall=True)
        self.system.stats.add("user.bytes_written", user_bytes)
        self.system.stats.add("op.batch", 1)
        return self._finish("batch", start, seconds)

    # ------------------------------------------------------------- read path

    def _batch_lookup(self):
        """A flat probe plan: ``_get`` with every layer crossing hoisted.

        One entry per MemTable, PMTable and (NVM) repository skip list
        in probe order, each carrying the table's pre-resolved bloom gate
        and its current ``frozen_index()`` arrays, so the closure serves
        a key with one inline ``bisect_left`` and one ``Device.read`` per
        probed table.  ``hops * unit`` is the cost model's
        ``hops * (hop + compare)`` bit for bit.

        The captured arrays are valid only until the next settled
        background callback relinks a list or moves a table; ``multi_get``
        then asks for a fresh closure, which is why this one must never
        be stored.  A list whose index is in rebuild back-off keeps its
        table's own ``get``; the others are credited with the keys the
        closure served (``lookup.served``, once per batch), or the
        back-off would take every captured index for an unused one.
        """
        system = self.system
        cpu = system.cpu
        nvm_unit = system.nvm.search_time(1)
        nvm_read = system.nvm.read
        captured = []

        def entry(bits, skiplist, unit, read, table_get):
            index = skiplist.frozen_index()
            if index is None:
                return (bits, None, None, None, 0, unit, read, table_get)
            captured.append((skiplist, index))
            keys, nodes, hops_at = index
            return (bits, keys, nodes, hops_at, len(keys), unit, read, table_get)

        plan = [
            entry(
                None, t.skiplist, t.device.search_time(1),
                t.device.read, t.get,
            )
            for t in (self.memtable, self.immutable) if t is not None
        ]
        # ``bits`` is None for a table whose filter is absent or
        # saturated (it always passes, for free).  The saturation test
        # builds a filter nobody has queried yet; ``bits()`` is then its
        # live bit array, which adds and merges update in place.  Every
        # filter shares the store's one geometry, so the probe costs are
        # two constants.
        k = nbits = 0
        for level_tables in self.levels:
            for pmtable in reversed(level_tables):
                bloom = pmtable.bloom
                if bloom is None or bloom.saturation > 0.9:
                    bits = None
                else:
                    k, nbits = bloom.k, bloom.nbits
                    bits = bloom.bits()
                plan.append(
                    entry(bits, pmtable.skiplist, nvm_unit, nvm_read, pmtable.get)
                )
        hit_cost = cpu.bloom_probe_time(k)
        miss_cost = cpu.bloom_probe_time(2)
        repo_get = self.repository.get
        if isinstance(self.repository, NvmRepository):
            last = entry(None, self.repository.skiplist, nvm_unit, nvm_read, None)
            if last[1] is not None:
                plan.append(last)
                repo_get = None

        def lookup(key):
            seconds = 0.0
            positions = None
            for bits, keys, nodes, hops_at, n, unit, read, table_get in plan:
                if bits is not None:
                    if positions is None:
                        # Hashed once per key, by the first gated table.
                        positions = probe_positions(key, k, nbits)
                    for pos in positions:
                        if not bits[pos]:
                            seconds += miss_cost
                            break
                    else:
                        seconds += hit_cost
                        bits = None
                    if bits is not None:
                        continue
                if keys is None:
                    node, cost = table_get(key)
                    seconds += cost
                    if node is None:
                        continue
                else:
                    p = bisect_left(keys, key)
                    cost = (hops_at[p] or 1) * unit
                    if p == n or keys[p] != key:
                        seconds += cost
                        continue
                    node = nodes[p]
                    seconds += cost + read(node.nbytes, False)
                return node.value, seconds
            if repo_get is None:
                return None, seconds
            value, cost = repo_get(key)
            return value, seconds + cost

        def served(count: int) -> None:
            for skiplist, index in captured:
                skiplist.credit_index(index, count)

        lookup.served = served
        return lookup

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        seconds = 0.0
        for table in (self.memtable, self.immutable):
            if table is None:
                continue
            node, cost = table.get(key)
            seconds += cost
            if node is not None:
                return node.value, seconds
        positions = None
        for level_tables in self.levels:
            for pmtable in reversed(level_tables):
                bloom = pmtable.bloom
                # The per-table bloom gate (its reference is ``may_contain``
                # in tests/support/oracles.py): a saturated filter
                # approves everything, so it is skipped for free; a
                # definite miss short-circuits after ~2 probes.
                if bloom is not None and bloom.saturation <= 0.9:
                    if positions is None:
                        # The first gated table: hash once for all of
                        # them (they share the store's one geometry).
                        positions = probe_positions(key, bloom.k, bloom.nbits)
                        cpu = self.system.cpu
                        hit_cost = cpu.bloom_probe_time(bloom.k)
                        miss_cost = cpu.bloom_probe_time(2)
                    if not bloom.probe(positions):
                        seconds += miss_cost
                        continue
                    seconds += hit_cost
                node, cost = pmtable.get(key)
                seconds += cost
                if node is not None:
                    return node.value, seconds
        value, cost = self.repository.get(key)
        return value, seconds + cost

    def _scan(self, start_key: bytes, count: int):
        sources = memtable_sources(self.memtable, self.immutable)
        sources += [
            (pmtable.skiplist, self.system.nvm)
            for level_tables in self.levels
            for pmtable in level_tables
        ]
        sources += self.repository.scan_sources(start_key)
        return self.merged_view.scan(self.system, start_key, count, sources)

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
