"""Tests for WriteBatch atomicity and the items() iterator."""

import pytest

from repro.core import MioDB, MioOptions, recover
from repro.kvstore.batch import WriteBatch
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.persist.crash import CrashInjector, SimulatedCrash
from tests.support.groups import build_group
from tests.support.probes import tear_tail

KB = 1 << 10


# ------------------------------------------------------------- WriteBatch


def test_batch_builder_validation():
    batch = WriteBatch()
    with pytest.raises(ValueError):
        batch.put(b"", b"v")
    with pytest.raises(TypeError):
        batch.put(b"k", 123)
    with pytest.raises(ValueError):
        batch.delete(b"")
    batch.put(b"k", b"v").delete(b"k2")
    assert len(batch) == 2
    assert not batch.is_empty


def test_batch_applies_all_ops(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    store.put(b"victim", b"old")
    batch = WriteBatch()
    for i in range(20):
        batch.put(b"batch%03d" % i, SizedValue(i, 128))
    batch.delete(b"victim")
    latency = store.write(batch)
    assert latency > 0
    for i in range(20):
        value, __ = store.get(b"batch%03d" % i)
        assert value.tag == i
    value, __ = store.get(b"victim")
    assert value is None


def test_empty_batch_is_free(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    assert store.write(WriteBatch()) == 0.0


def test_base_class_batch_on_baselines(system, tiny_options):
    from repro.baselines import LevelDBStore

    store = LevelDBStore(system, tiny_options)
    batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"a")
    store.write(batch)
    assert store.get(b"a")[0] is None
    assert store.get(b"b")[0] == b"2"


def test_batch_is_atomic_across_torn_crash():
    system = HybridMemorySystem()
    injector = CrashInjector()
    store = MioDB(
        system,
        MioOptions(memtable_bytes=8 * KB, num_levels=3),
        crash_injector=injector,
    )
    for i in range(50):
        store.put(b"pre%03d" % i, SizedValue(i, 128))

    batch = WriteBatch()
    for i in range(10):
        batch.put(b"atomic%03d" % i, SizedValue(i, 128))
    injector.arm("write.after_wal_batch")
    with pytest.raises(SimulatedCrash):
        store.write(batch)
    # the crash tore the commit record away: the whole batch must vanish
    tear_tail(store.wal, 1)
    recovered, __ = recover(store)
    for i in range(10):
        value, __lat = recovered.get(b"atomic%03d" % i)
        assert value is None, i
    for i in range(50):
        value, __lat = recovered.get(b"pre%03d" % i)
        assert value is not None, i


def test_batch_survives_crash_after_commit():
    system = HybridMemorySystem()
    injector = CrashInjector()
    store = MioDB(
        system,
        MioOptions(memtable_bytes=8 * KB, num_levels=3),
        crash_injector=injector,
    )
    batch = WriteBatch()
    for i in range(10):
        batch.put(b"atomic%03d" % i, SizedValue(i, 128))
    injector.arm("write.after_wal_batch")
    with pytest.raises(SimulatedCrash):
        store.write(batch)
    # commit record intact (no torn tail): replay surfaces the batch
    recovered, __ = recover(store)
    for i in range(10):
        value, __lat = recovered.get(b"atomic%03d" % i)
        assert value is not None and value.tag == i


def test_batch_clear_allows_reuse(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    batch = WriteBatch().put(b"a", b"1").delete(b"b")
    assert batch.clear() is batch
    assert batch.is_empty and len(batch) == 0
    batch.put(b"c", b"2")
    store.write(batch)
    assert store.get(b"a")[0] is None  # cleared op never ran
    assert store.get(b"c")[0] == b"2"


def test_batch_iteration_order_is_insertion_order():
    batch = WriteBatch()
    batch.put(b"x", b"1").delete(b"y").put(b"x", b"2")
    assert [(op, key) for op, key, __ in batch.ops] == [
        ("put", b"x"), ("delete", b"y"), ("put", b"x"),
    ]


@pytest.mark.parametrize(
    "ops,expect",
    [
        # last write wins: the op queued last determines the final state
        ([("put", b"1"), ("put", b"2")], b"2"),
        ([("put", b"1"), ("delete", None), ("put", b"3")], b"3"),
        ([("put", b"1"), ("delete", None)], None),
        ([("delete", None), ("put", b"4")], b"4"),
    ],
)
def test_batch_duplicate_keys_last_write_wins(ops, expect):
    from repro.bench import STORE_NAMES
    from repro.bench.config import BenchScale
    from repro.bench.factory import make_store

    scale = BenchScale(memtable_bytes=8 * KB)
    for name in STORE_NAMES:
        store, __ = make_store(name, scale)
        store.put(b"dup", b"seed")
        batch = WriteBatch()
        for op, value in ops:
            if op == "put":
                batch.put(b"dup", value)
            else:
                batch.delete(b"dup")
        store.write(batch)
        assert store.get(b"dup")[0] == expect, name
        store.quiesce()
        assert store.get(b"dup")[0] == expect, (name, "after quiesce")


def test_batch_duplicate_keys_lww_survives_crash_replay():
    """WAL replay applies duplicate-key batch ops in order (LWW holds)."""
    system = HybridMemorySystem()
    injector = CrashInjector()
    store = MioDB(
        system,
        MioOptions(memtable_bytes=8 * KB, num_levels=3),
        crash_injector=injector,
    )
    batch = WriteBatch()
    batch.put(b"dup", SizedValue("old", 128))
    batch.delete(b"dup")
    batch.put(b"dup", SizedValue("new", 128))
    batch.put(b"gone", SizedValue("x", 128)).delete(b"gone")
    injector.arm("write.after_wal_batch")
    with pytest.raises(SimulatedCrash):
        store.write(batch)
    recovered, __ = recover(store)
    value, __lat = recovered.get(b"dup")
    assert value is not None and value.tag == "new"
    assert recovered.get(b"gone")[0] is None


# ---------------------------------------------------------------- items()


def test_items_full_iteration(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    keys = [b"key%04d" % i for i in range(300)]
    for i, key in enumerate(keys):
        store.put(key, SizedValue(i, 128))
    store.quiesce()
    got = [k for k, __ in store.items()]
    assert got == keys


def test_items_bounds(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    for i in range(100):
        store.put(b"key%04d" % i, SizedValue(i, 128))
    window = list(store.items(b"key0010", b"key0020"))
    assert [k for k, __ in window] == [b"key%04d" % i for i in range(10, 20)]
    assert all(v.tag == i for i, (__, v) in zip(range(10, 20), window))


def test_items_skips_deletes(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    for i in range(30):
        store.put(b"key%04d" % i, SizedValue(i, 128))
    store.delete(b"key0005")
    keys = [k for k, __ in store.items()]
    assert b"key0005" not in keys
    assert len(keys) == 29


def test_items_page_size_validation(system, tiny_mio_options):
    store = MioDB(system, tiny_mio_options)
    with pytest.raises(ValueError):
        list(store.items(page_size=0))


def test_items_rejects_page_size_before_iterating(system, tiny_mio_options):
    """The store's, the replica group's and the router's ``items()`` raise
    when called, not at the first ``next()`` of the iterator."""
    from repro.bench.config import BenchScale
    from repro.cluster import Cluster, ShardRouter
    from repro.replication import ReplicationConfig

    scale = BenchScale(memtable_bytes=8 * KB)
    group = build_group("miodb", scale, ReplicationConfig(followers=1))
    router = ShardRouter(Cluster("miodb", n_shards=2, scale=scale))
    for owner in (MioDB(system, tiny_mio_options), group, router):
        with pytest.raises(ValueError, match="page_size must be positive"):
            owner.items(page_size=0)


def test_items_works_on_every_store(tiny_options):
    from repro.bench import STORE_NAMES, make_store
    from repro.bench.config import BenchScale

    scale = BenchScale(memtable_bytes=8 * KB)
    for name in STORE_NAMES:
        store, __ = make_store(name, scale)
        for i in range(60):
            store.put(b"key%04d" % i, SizedValue(i, 128))
        got = [k for k, __v in store.items(page_size=17)]
        assert got == [b"key%04d" % i for i in range(60)], name
