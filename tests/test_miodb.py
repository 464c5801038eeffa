"""Behavioural tests for MioDB's core mechanisms."""

import pytest

from repro.core import MioDB, MioOptions
from repro.kvstore.values import SizedValue
from repro.skiplist.node import TOMBSTONE

KB = 1 << 10


def fill(store, n, value_size=256, key_space=None):
    space = key_space or n
    for i in range(n):
        store.put(b"key%06d" % ((i * 7919) % space), SizedValue(i, value_size))


# ------------------------------------------------------------ one-piece flush


def test_flush_creates_pmtable_in_l0(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 80)
    store.quiesce()
    assert system.stats.get("flush.count") >= 1
    assert sum(store.level_table_counts()) >= 1


def test_put_path_never_rotates_an_empty_memtable(system, tiny_mio_options):
    from repro.kvstore.memtable import MemTable

    store = MioDB(system, tiny_mio_options)
    # Rotation only triggers on a *full* MemTable; an empty table is
    # never full (its footprint is zero and capacities are positive, a
    # constraint the MemTable constructor enforces), so the put path can
    # never rotate an empty one.
    assert not store.memtable.is_full
    with pytest.raises(ValueError):
        MemTable(system, 0)


def test_empty_memtable_rotate_is_handled(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    assert len(store.memtable) == 0
    # Unreachable from the put path (see above), but direct rotation of
    # an empty table must degenerate gracefully: last_seq falls back to
    # store.seq so WAL truncation never goes backwards, and the flush
    # schedules zero pointer-swizzle work instead of crashing.
    store._rotate_memtable()
    store.quiesce()
    assert store.seq == 0
    assert store.immutable is None
    # The store keeps working normally afterwards.
    store.put(b"after", SizedValue(1, 64))
    value, __ = store.get(b"after")
    assert value is not None


def test_immutable_serves_reads_during_flush(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    i = 0
    while store.immutable is None:
        store.put(b"key%06d" % i, SizedValue(i, 256))
        i += 1
    # flush + swizzle are still in flight; every written key must be
    # readable right now
    assert store._flush_job is not None and not store._flush_job.done
    for j in range(i):
        value, __ = store.get(b"key%06d" % j)
        assert value is not None


def test_one_piece_flush_much_faster_than_per_kv(tiny_mio_options):
    from repro.mem.system import HybridMemorySystem

    durations = {}
    for one_piece in (True, False):
        system = HybridMemorySystem()
        options = MioOptions(
            memtable_bytes=tiny_mio_options.memtable_bytes,
            num_levels=4,
            one_piece_flush=one_piece,
        )
        store = MioDB(system, options)
        fill(store, 400)
        store.quiesce()
        durations[one_piece] = system.stats.get("flush.time_s")
    assert durations[True] < durations[False]


def test_wal_truncated_after_swizzle(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 200)
    store.quiesce()
    assert store.wal.record_count <= 40  # only live-MemTable records remain


def test_swizzle_time_recorded(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 100)
    store.quiesce()
    assert system.stats.get("swizzle.time_s") > 0


# ----------------------------------------------------------- elastic buffer


def test_no_write_stalls_even_under_burst(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 3000)
    assert system.stats.get("stall.interval_s") == pytest.approx(0.0, abs=1e-6)
    assert system.stats.get("stall.cumulative_s") == 0.0


def test_zero_copy_merges_move_tables_down(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 600)
    store.quiesce()
    assert system.stats.get("compact.count") >= 1
    # quiesced buffer holds at most one table per level (paper Section 5.4)
    assert all(count <= 1 for count in store.level_table_counts())


def test_zero_copy_compaction_writes_almost_nothing(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 600, value_size=2048)  # paper-like value/key ratio
    store.quiesce()
    ptr_bytes = 8 * system.stats.get("compact.ptr_writes")
    user_bytes = system.stats.get("user.bytes_written")
    assert ptr_bytes < 0.02 * user_bytes


def test_lazy_copy_populates_repository(system):
    options = MioOptions(memtable_bytes=4 * KB, num_levels=3)
    store = MioDB(system, options)
    fill(store, 1200, key_space=400)
    store.quiesce()
    assert system.stats.get("compact.lazy_count") >= 1
    assert store.repository.entry_count > 0
    assert system.stats.get("gc.reclaimed_bytes") > 0


def test_repository_holds_unique_newest_versions(system):
    options = MioOptions(memtable_bytes=4 * KB, num_levels=2)
    store = MioDB(system, options)
    for round_ in range(6):
        for i in range(100):
            store.put(b"key%06d" % i, SizedValue((round_, i), 256))
    store.quiesce()
    repo = store.repository
    assert repo.entry_count <= 100
    seen = set()
    for node in repo.skiplist.nodes():
        assert node.key not in seen
        seen.add(node.key)


def test_tombstones_eliminated_at_repository(system):
    options = MioOptions(memtable_bytes=4 * KB, num_levels=2)
    store = MioDB(system, options)
    for i in range(150):
        store.put(b"key%06d" % i, SizedValue(i, 256))
    for i in range(150):
        store.delete(b"key%06d" % i)
    for i in range(300, 500):
        store.put(b"key%06d" % i, SizedValue(i, 256))
    store.quiesce()
    for node in store.repository.skiplist.nodes():
        assert node.value is not TOMBSTONE
    for i in range(150):
        value, __ = store.get(b"key%06d" % i)
        assert value is None


def test_parallel_compaction_uses_per_level_workers(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    names = {w.name for w in store.compactor.workers}
    assert len(names) == tiny_mio_options.num_levels


def test_serial_compaction_ablation(system):
    options = MioOptions(
        memtable_bytes=8 * KB, num_levels=4, parallel_compaction=False
    )
    store = MioDB(system, options)
    assert len({id(w) for w in store.compactor.workers}) == 1
    fill(store, 600)
    store.quiesce()
    for i in range(600):
        value, __ = store.get(b"key%06d" % i)
        assert value is not None


def test_copying_compaction_ablation_amplifies_writes():
    from repro.mem.system import HybridMemorySystem

    was = {}
    for zero_copy in (True, False):
        system = HybridMemorySystem()
        options = MioOptions(memtable_bytes=8 * KB, num_levels=4, zero_copy=zero_copy)
        store = MioDB(system, options)
        fill(store, 1200)
        store.quiesce()
        was[zero_copy] = system.write_amplification()
    assert was[False] > was[True]


# --------------------------------------------------------------- read path


def test_reads_find_newest_version_everywhere(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 900, key_space=300)
    for i in range(300):
        value, __ = store.get(b"key%06d" % i)
        assert value is not None


def test_bloom_filters_cut_read_cost(tiny_mio_options):
    from repro.mem.system import HybridMemorySystem

    costs = {}
    for use_blooms in (True, False):
        system = HybridMemorySystem()
        options = MioOptions(memtable_bytes=256 * KB, num_levels=6,
                             use_blooms=use_blooms)
        store = MioDB(system, options)
        fill(store, 2000, value_size=4096)
        # blooms pay off by excluding tables a key cannot be in, which
        # is most visible on lookups that miss every buffer table;
        # the absent keys sort inside the populated range so the
        # no-bloom path pays a real (non-trivial) search per table
        total = 0.0
        for i in range(500):
            __, lat = store.get(b"key%06dzz" % (i * 3))
            total += lat
        costs[use_blooms] = total
    assert costs[True] < costs[False]


def test_scan_across_buffer_and_repository(system):
    options = MioOptions(memtable_bytes=4 * KB, num_levels=2)
    store = MioDB(system, options)
    for i in range(400):
        store.put(b"key%06d" % i, SizedValue(i, 256))
    pairs, __ = store.scan(b"key000100", 20)
    assert [k for k, __ in pairs] == [b"key%06d" % i for i in range(100, 120)]
    store.quiesce()
    pairs, __ = store.scan(b"key000100", 20)
    assert [k for k, __ in pairs] == [b"key%06d" % i for i in range(100, 120)]


def test_scan_skips_deleted_keys(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    for i in range(50):
        store.put(b"key%06d" % i, SizedValue(i, 256))
    store.delete(b"key000002")
    pairs, __ = store.scan(b"key000000", 5)
    keys = [k for k, __ in pairs]
    assert b"key000002" not in keys
    assert len(keys) == 5


# ------------------------------------------------------------- buffer cap


def test_nvm_buffer_cap_forces_stalls(system):
    options = MioOptions(
        memtable_bytes=4 * KB, num_levels=3, max_nvm_buffer_bytes=24 * KB
    )
    store = MioDB(system, options)
    fill(store, 2000)
    assert system.stats.get("stall.interval_s") > 0


def test_elastic_buffer_usage_reported(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    fill(store, 500)
    assert store.elastic_buffer_bytes() > 0
    assert system.nvm.peak_bytes_in_use >= store.elastic_buffer_bytes()
