"""Behavioural tests for the baseline stores.

Every store is held to a dict by the model checker
(``test_model_checker.py``); these tests pin down the *design*
behaviours the paper attributes to each baseline.
"""

import pytest

from repro.baselines import (
    LevelDBStore,
    MatrixKVOptions,
    MatrixKVStore,
    NoveLSMNoSSTStore,
    NoveLSMOptions,
    NoveLSMStore,
)
from repro.kvstore.options import StoreOptions
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem

KB = 1 << 10


def fill(store, n, value_size=256, key_space=None):
    space = key_space or n
    for i in range(n):
        store.put(b"key%06d" % ((i * 7919) % space), SizedValue(i, value_size))


# ---------------------------------------------------------------- LevelDB


def test_leveldb_flushes_on_memtable_full(system, tiny_options):
    store = LevelDBStore(system, tiny_options)
    fill(store, 80)
    assert system.stats.get("flush.count") >= 1


def test_leveldb_wal_truncated_after_flush(system, tiny_options):
    store = LevelDBStore(system, tiny_options)
    fill(store, 200)
    store.quiesce()
    # only the live MemTable's records remain
    assert store.wal.record_count <= 80


def test_leveldb_read_through_all_layers(system, tiny_options):
    store = LevelDBStore(system, tiny_options)
    fill(store, 300, key_space=100)
    store.quiesce()
    for i in range(100):
        value, __ = store.get(b"key%06d" % i)
        assert value is not None


def test_leveldb_suffers_write_stalls(system, tiny_options):
    store = LevelDBStore(system, tiny_options)
    fill(store, 1500)
    stalls = system.stats.get("stall.interval_s") + system.stats.get(
        "stall.cumulative_s"
    )
    assert stalls > 0


def test_leveldb_scan_includes_memtable_and_tables(system, tiny_options):
    store = LevelDBStore(system, tiny_options)
    for i in range(60):
        store.put(b"key%06d" % i, SizedValue(i, 256))
    pairs, __ = store.scan(b"key000010", 5)
    assert [k for k, __ in pairs] == [b"key%06d" % i for i in range(10, 15)]


# ---------------------------------------------------------------- NoveLSM


def test_novelsm_uses_nvm_memtable_when_dram_busy(system):
    options = NoveLSMOptions(
        memtable_bytes=8 * KB, sstable_bytes=8 * KB, nvm_memtable_bytes=64 * KB
    )
    store = NoveLSMStore(system, options)
    fill(store, 400)
    # flat mode: some writes bypassed the DRAM buffer into the NVM table
    assert len(store.nvm_mt.skiplist) > 0 or store.nvm_imm is not None


def test_novelsm_hierarchical_stalls_instead_of_bypassing(system):
    options = NoveLSMOptions(
        memtable_bytes=8 * KB,
        sstable_bytes=8 * KB,
        nvm_memtable_bytes=64 * KB,
        mutable_nvm=False,
    )
    store = NoveLSMStore(system, options)
    fill(store, 400)
    assert system.stats.get("stall.interval_s") > 0


def test_novelsm_big_flush_reaches_sstables(system):
    options = NoveLSMOptions(
        memtable_bytes=4 * KB, sstable_bytes=4 * KB, nvm_memtable_bytes=16 * KB
    )
    store = NoveLSMStore(system, options)
    fill(store, 600)
    store.quiesce()
    assert sum(len(level) for level in store.lsm.levels) > 0


def test_novelsm_reads_resolve_newest_across_buffers(system):
    options = NoveLSMOptions(
        memtable_bytes=8 * KB, sstable_bytes=8 * KB, nvm_memtable_bytes=64 * KB
    )
    store = NoveLSMStore(system, options)
    for round_ in range(5):
        for i in range(60):
            store.put(b"key%06d" % i, SizedValue((round_, i), 256))
    for i in range(60):
        value, __ = store.get(b"key%06d" % i)
        assert value is not None
        assert value.tag[0] == 4  # newest round


# ------------------------------------------------------------ NoveLSM-NoSST


def test_nosst_single_skiplist_no_flushes(system, tiny_options):
    store = NoveLSMNoSSTStore(system, tiny_options)
    fill(store, 500)
    assert system.stats.get("flush.count") == 0
    assert len(store.skiplist) <= 500


def test_nosst_in_place_updates_drop_old_versions(system, tiny_options):
    store = NoveLSMNoSSTStore(system, tiny_options)
    for round_ in range(4):
        store.put(b"k", SizedValue(round_, 256))
    assert len(store.skiplist) == 1
    value, __ = store.get(b"k")
    assert value.tag == 3


def test_nosst_write_amplification_is_one(system, tiny_options):
    store = NoveLSMNoSSTStore(system, tiny_options)
    fill(store, 300)
    # data is written exactly once; the small excess over 1.0 is the
    # per-node metadata (tower pointers etc.), not rewritten user data
    assert 1.0 <= system.write_amplification() <= 1.3


def test_nosst_scan_fast_and_ordered(system, tiny_options):
    store = NoveLSMNoSSTStore(system, tiny_options)
    for i in range(100):
        store.put(b"key%06d" % i, SizedValue(i, 256))
    pairs, __ = store.scan(b"key000050", 10)
    assert [k for k, __ in pairs] == [b"key%06d" % i for i in range(50, 60)]


# --------------------------------------------------------------- MatrixKV


@pytest.fixture
def matrix_options():
    return MatrixKVOptions(
        memtable_bytes=8 * KB,
        sstable_bytes=8 * KB,
        container_bytes=64 * KB,
        column_target_bytes=16 * KB,
    )


def test_matrixkv_rows_accumulate_in_container(system, matrix_options):
    store = MatrixKVStore(system, matrix_options)
    fill(store, 200)
    store.quiesce()
    assert system.stats.get("flush.count") >= 1


def test_matrixkv_column_compaction_moves_data_to_l1(system, matrix_options):
    store = MatrixKVStore(system, matrix_options)
    fill(store, 1500)
    store.quiesce()
    assert store.column_worker.jobs_run >= 1
    assert len(store.lsm.levels[1]) + len(store.lsm.levels[2]) > 0


def test_matrixkv_no_interval_stalls_under_load(system, matrix_options):
    store = MatrixKVStore(system, matrix_options)
    fill(store, 1500)
    assert system.stats.get("stall.interval_s") == pytest.approx(0.0, abs=1e-9)
    assert system.stats.get("stall.cumulative_s") > 0


def test_matrixkv_reads_see_container_and_levels(system, matrix_options):
    store = MatrixKVStore(system, matrix_options)
    fill(store, 1200, key_space=300)
    store.quiesce()
    for i in range(300):
        value, __ = store.get(b"key%06d" % i)
        assert value is not None, i


def test_matrixkv_container_bytes_bounded(system, matrix_options):
    store = MatrixKVStore(system, matrix_options)
    fill(store, 2000)
    assert store.container_bytes() <= matrix_options.container_bytes * 1.1
