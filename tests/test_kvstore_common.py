"""Unit tests for the KV store base: values, options, MemTable, API checks."""

import pytest

from repro.baselines.lsm import LeveledLSM
from repro.bench.config import BenchScale
from repro.bench.factory import STORE_NAMES, make_store
from repro.kvstore.batch import WriteBatch
from repro.kvstore.memtable import MemTable, memtable_entries
from repro.kvstore.options import MB, StoreOptions
from repro.kvstore.values import SizedValue, value_nbytes
from repro.sim.rng import XorShiftRng

SCALE = BenchScale(memtable_bytes=8 << 10, dataset_bytes=1 << 20, value_size=256)


# ------------------------------------------------------------------ values


def test_value_nbytes_for_bytes():
    assert value_nbytes(b"hello") == 5


def test_value_nbytes_for_str():
    assert value_nbytes("héllo") == len("héllo".encode("utf-8"))


def test_value_nbytes_for_sized_value():
    assert value_nbytes(SizedValue("tag", 4096)) == 4096


def test_value_nbytes_rejects_other_types():
    with pytest.raises(TypeError):
        value_nbytes(12345)


def test_sized_value_equality_and_hash():
    a = SizedValue("x", 10)
    b = SizedValue("x", 10)
    c = SizedValue("y", 10)
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_sized_value_rejects_negative():
    with pytest.raises(ValueError):
        SizedValue("x", -1)


class _Size(int):
    """An int subclass: accepted past the plain-int fast path."""


@pytest.mark.parametrize("size", [0, 1, 4096, 2**70, _Size(7), _Size(0)])
def test_sized_value_accepts_ints_and_int_subclasses(size):
    value = SizedValue("x", size)
    assert value.nbytes == size and value.nbytes is size


@pytest.mark.parametrize("size, error", [
    (True, TypeError), (False, TypeError), (2.5, TypeError), (1.0, TypeError),
    ("3", TypeError), (None, TypeError), (b"\x01", TypeError),
    (-1, ValueError), (-(2**70), ValueError), (_Size(-3), ValueError),
])
def test_sized_value_refuses_what_it_always_refused(size, error):
    """``bool`` is an ``int`` subclass and still a type error; a negative
    int of any int type is a value error."""
    with pytest.raises(error, match="value size must be"):
        SizedValue("x", size)


@pytest.mark.parametrize("size", [2.5, float("nan"), float("inf"), True])
def test_a_size_that_is_not_an_int_is_refused_before_the_store_sees_it(size):
    # A fractional size left fractional byte counters, a NaN failed only
    # after the WAL append, and an inf moved the clock to inf.
    store, system = make_store("leveldb", SCALE)
    store.put(b"k0", SizedValue(0, 64))
    before = (system.clock.now, system.stats.snapshot(), store.seq)
    with pytest.raises(TypeError, match="value size must be an int"):
        store.put(b"k1", SizedValue("x", size))
    assert (system.clock.now, system.stats.snapshot(), store.seq) == before


# ----------------------------------------------------------------- options


def test_level_capacity_grows_by_fanout(system):
    lsm = LeveledLSM(system, StoreOptions(sstable_bytes=MB), system.nvm)
    assert lsm.level_capacity(1) == 10 * MB
    assert lsm.level_capacity(2) == 100 * MB


# ---------------------------------------------------------------- memtable


def test_memtable_insert_and_get(system):
    table = MemTable(system, 1 << 20, XorShiftRng(1))
    cost = table.insert(b"k", 1, b"value", 5)
    assert cost > 0
    node, get_cost = table.get(b"k")
    assert node.value == b"value"
    assert get_cost > 0


def test_memtable_fills_up(system):
    table = MemTable(system, 1 << 10, XorShiftRng(1))
    i = 0
    while not table.is_full:
        table.insert(b"k%05d" % i, i + 1, b"v", 100)
        i += 1
    assert table.data_bytes >= (1 << 10) - 200


def test_memtable_immutable_rejects_inserts(system):
    table = MemTable(system, 1 << 20, XorShiftRng(1))
    table.rotate(XorShiftRng(2))
    with pytest.raises(ValueError):
        table.insert(b"k", 1, b"v", 1)


def test_memtable_placement_affects_device(system):
    dram_table = MemTable(system, 1 << 20, XorShiftRng(1))
    assert dram_table.device is system.dram
    assert system.dram.bytes_in_use >= 1 << 20
    nvm_before = system.nvm.bytes_in_use
    MemTable(system, 1 << 20, XorShiftRng(2), system.nvm)
    assert system.nvm.bytes_in_use == nvm_before + (1 << 20)
    dram_table.release()


def test_memtable_nvm_insert_costs_more(system):
    dram_table = MemTable(system, 1 << 20, XorShiftRng(1))
    nvm_table = MemTable(system, 1 << 20, XorShiftRng(1), system.nvm)
    dram_cost = dram_table.insert(b"k", 1, b"v", 4096)
    nvm_cost = nvm_table.insert(b"k", 1, b"v", 4096)
    assert nvm_cost > dram_cost


def test_memtable_rejects_bad_args(system):
    with pytest.raises(ValueError):
        MemTable(system, 0)


def test_memtable_entries_sorted_and_sized(system):
    table = MemTable(system, 1 << 20, XorShiftRng(1))
    table.insert(b"b", 1, b"v1", 7)
    table.insert(b"a", 2, b"v2", 9)
    table.insert(b"a", 3, b"v3", 11)
    entries = memtable_entries(table)
    assert [(e[0], e[1]) for e in entries] == [(b"a", 3), (b"a", 2), (b"b", 1)]
    assert entries[0][3] == 11  # value_bytes round-trips


# ----------------------------------------------------------- api validation


def test_store_rejects_empty_keys(system, tiny_mio_options):
    from repro.core import MioDB

    store = MioDB(system, tiny_mio_options)
    with pytest.raises(ValueError):
        store.put(b"", b"v")
    with pytest.raises(ValueError):
        store.get("not-bytes")
    with pytest.raises(ValueError):
        store.scan(b"ok", -1)


def _fifty_keys(owner_kind):
    """``(owner, probe)``: a store, router or replica group holding 50
    keys, and a probe of every clock and stats registry a scan can move."""
    from repro.cluster import Cluster, ShardRouter
    from repro.replication import ReplicationConfig
    from tests.support.groups import build_group

    if owner_kind == "router":
        cluster = Cluster("miodb", n_shards=2, scale=SCALE)
        owner = ShardRouter(cluster)
        registries = [cluster.stats] + [shard.system.stats for shard in cluster.shards]
        clock = cluster.clock
    elif owner_kind == "group":
        owner = build_group("miodb", SCALE, ReplicationConfig(followers=1))
        registries = [owner.stats] + [m.system.stats for m in owner.members]
        clock = owner.clock
    else:
        owner, system = make_store(owner_kind, SCALE)
        registries = [system.stats]
        clock = system.clock
    for i in range(50):
        owner.put(b"key%04d" % i, SizedValue(i, 64))
    owner.quiesce()
    return owner, lambda: (clock.now, [r.snapshot() for r in registries])


@pytest.mark.parametrize(
    "count, error",
    [(2.5, TypeError), (float("nan"), TypeError), (True, TypeError),
     ("3", TypeError), (None, TypeError), (-1, ValueError)],
    ids=["float", "nan", "bool", "str", "none", "negative"],
)
@pytest.mark.parametrize("owner_kind", STORE_NAMES + ("router", "group"))
def test_a_bad_scan_count_is_refused_before_any_work(owner_kind, count, error):
    owner, probe = _fifty_keys(owner_kind)
    before = probe()
    with pytest.raises(error, match="scan count"):
        owner.scan(b"key0000", count)
    assert probe() == before
    with pytest.raises(error, match="page_size"):
        owner.items(page_size=count)
    assert probe() == before
    pairs, __ = owner.scan(b"key0000", 3)
    assert [k for k, __v in pairs] == [b"key0000", b"key0001", b"key0002"]


@pytest.mark.parametrize("name", STORE_NAMES)
def test_a_bytearray_key_is_refused_not_stored_by_reference(name):
    # A stored bytearray could be mutated by its caller after the put,
    # moving the entry to another key and breaking the list's order.
    key = bytearray(b"key1")
    store, __ = make_store(name, SCALE)
    for op in (lambda: store.put(key, b"v"), lambda: store.get(key),
               lambda: store.delete(key), lambda: store.scan(key, 1),
               lambda: store.multi_put([(key, b"v")])):
        with pytest.raises(ValueError, match="non-empty bytes"):
            op()
    assert store.seq == 0
    for op in (lambda: WriteBatch().put(key, b"v"),
               lambda: WriteBatch().delete(key)):
        with pytest.raises(ValueError, match="non-empty bytes"):
            op()


@pytest.mark.parametrize("name", STORE_NAMES)
def test_a_bytearray_value_is_refused_not_stored_by_reference(name):
    # A stored bytearray could be resized by its caller after the put:
    # a get would then return bytes the put never charged.
    value = bytearray(b"abcd")
    store, system = make_store(name, SCALE)
    for op in (lambda: store.put(b"k1", value),
               lambda: store.multi_put([(b"k1", value)]),
               lambda: WriteBatch().put(b"k1", value)):
        with pytest.raises(TypeError, match="pass bytes or SizedValue"):
            op()
    assert store.seq == 0
    assert system.stats.get("user.bytes_written") == 0
    assert store.get(b"k1")[0] is None


def test_delete_then_get_returns_none(system, tiny_mio_options):
    from repro.core import MioDB

    store = MioDB(system, tiny_mio_options)
    store.put(b"k", b"v")
    store.delete(b"k")
    value, __ = store.get(b"k")
    assert value is None
