"""Behavioural tests for the SLM-DB baseline."""

import pytest

from repro.baselines import SLMDBStore, slmdb
from repro.kvstore.options import StoreOptions
from repro.kvstore.values import SizedValue
from tests.support.oracles import check_invariants

KB = 1 << 10


@pytest.fixture
def options(monkeypatch):
    monkeypatch.setattr(slmdb, "COMPACTION_TRIGGER_TABLES", 4)
    monkeypatch.setattr(slmdb, "COMPACTION_FANIN", 3)
    return StoreOptions(memtable_bytes=8 * KB)


def fill(store, n, value_size=256, key_space=None):
    space = key_space or n
    for i in range(n):
        store.put(b"key%06d" % ((i * 7919) % space), SizedValue(i, value_size))


def test_single_level_structure(system, options):
    store = SLMDBStore(system, options)
    fill(store, 600)
    store.quiesce()
    # tables form one flat level; compaction keeps the count bounded
    assert 0 < len(store.tables) <= slmdb.COMPACTION_TRIGGER_TABLES + 2
    assert system.stats.get("compact.count") >= 1


def test_index_points_reads_at_one_table(system, options):
    store = SLMDBStore(system, options)
    fill(store, 400, key_space=150)
    store.quiesce()
    for i in range(150):
        value, __ = store.get(b"key%06d" % i)
        assert value is not None, i
    assert len(store.index) == 150


def test_index_survives_compactions(system, options):
    store = SLMDBStore(system, options)
    for round_ in range(5):
        for i in range(120):
            store.put(b"key%06d" % i, SizedValue((round_, i), 256))
        store.quiesce()
    for i in range(120):
        value, __ = store.get(b"key%06d" % i)
        assert value.tag == (4, i)
    check_invariants(store.index)


def test_deletes_remove_index_entries(system, options):
    store = SLMDBStore(system, options)
    fill(store, 300, key_space=100)
    for i in range(0, 100, 2):
        store.delete(b"key%06d" % i)
    # force enough traffic that compaction processes the tombstones
    fill(store, 400, key_space=50)
    store.quiesce()
    for i in range(50, 100, 2):
        value, __ = store.get(b"key%06d" % i)
        assert value is None


def test_flush_and_compaction_serialize(system, options):
    store = SLMDBStore(system, options)
    fill(store, 1200)
    # single background worker: flushes + compactions never overlap
    worker_names = {w.name for w in system.executor.workers if "slmdb" in w.name}
    assert worker_names == {"slmdb-background"}
    assert system.stats.get("stall.interval_s") >= 0.0


def test_slmdb_slower_writes_than_miodb(options):
    from repro.core import MioDB, MioOptions
    from repro.mem.system import HybridMemorySystem

    results = {}
    for name in ("slmdb", "miodb"):
        system = HybridMemorySystem()
        if name == "slmdb":
            store = SLMDBStore(system, options)
        else:
            store = MioDB(system, MioOptions(memtable_bytes=8 * KB, num_levels=4))
        fill(store, 1500, value_size=1024)
        results[name] = system.clock.now
    assert results["miodb"] < results["slmdb"]


def test_scan_merges_memtable_and_tables(system, options):
    store = SLMDBStore(system, options)
    for i in range(200):
        store.put(b"key%06d" % i, SizedValue(i, 256))
    pairs, __ = store.scan(b"key000050", 8)
    assert [k for k, __v in pairs] == [b"key%06d" % i for i in range(50, 58)]


def test_index_arena_accounts_nvm(system, options):
    store = SLMDBStore(system, options)
    fill(store, 500)
    store.quiesce()
    assert store.index_arena.size > 0
    assert system.nvm.bytes_in_use >= store.index_arena.size


def test_kept_tombstone_still_shadows_older_tables(system, monkeypatch):
    # A selective compaction that keeps a tombstone (other tables stay
    # live) must index it: unindexing it let a later compaction of an
    # older table re-point the key at the deleted version.
    monkeypatch.setattr(slmdb, "COMPACTION_TRIGGER_TABLES", 2)
    monkeypatch.setattr(slmdb, "COMPACTION_FANIN", 2)
    store = SLMDBStore(
        system, StoreOptions(memtable_bytes=1000, sstable_bytes=1000)
    )
    for batch in (
        [(b"a", 1), (b"k", 1)],
        [(b"j", 1), (b"k", None), (b"l", 1)],
        [(b"kb", 1), (b"kc", 1)],
        [(b"b", 1), (b"c", 1)],
    ):
        for key, value in batch:
            if value is None:
                store.delete(key)
            else:
                store.put(key, SizedValue(value, 10))
        store._make_room()
        store.quiesce()
    assert system.stats.get("compact.count") == 2
    assert store.get(b"k")[0] is None
    assert b"k" not in dict(store.items())
    check_invariants(store.index)
