"""Every store must behave like a dict under arbitrary operation streams.

This is the cross-engine contract: MioDB and every baseline, fed the same
puts/deletes/gets/scans, agree with a reference dictionary model at every
point -- including while background flushes and compactions are mid-
flight in simulated time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    LevelDBStore,
    MatrixKVOptions,
    MatrixKVStore,
    NoveLSMNoSSTStore,
    NoveLSMOptions,
    NoveLSMStore,
)
from repro.core import MioDB, MioOptions
from repro.kvstore.options import StoreOptions
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem

KB = 1 << 10
STORE_NAMES = [
    "miodb",
    "miodb-ssd",
    "leveldb",
    "novelsm",
    "novelsm-nosst",
    "matrixkv",
    "slmdb",
]


def build_store(name):
    if name == "miodb":
        system = HybridMemorySystem()
        return MioDB(system, MioOptions(memtable_bytes=2 * KB, num_levels=3))
    if name == "miodb-ssd":
        system = HybridMemorySystem(ssd=True)
        return MioDB(
            system,
            MioOptions(memtable_bytes=2 * KB, sstable_bytes=2 * KB,
                       num_levels=3, ssd_mode=True),
        )
    system = HybridMemorySystem()
    if name == "leveldb":
        return LevelDBStore(system, StoreOptions(memtable_bytes=2 * KB, sstable_bytes=2 * KB))
    if name == "novelsm":
        return NoveLSMStore(
            system,
            NoveLSMOptions(memtable_bytes=2 * KB, sstable_bytes=2 * KB,
                           nvm_memtable_bytes=8 * KB),
        )
    if name == "novelsm-nosst":
        return NoveLSMNoSSTStore(system, StoreOptions(memtable_bytes=2 * KB))
    if name == "matrixkv":
        return MatrixKVStore(
            system,
            MatrixKVOptions(memtable_bytes=2 * KB, sstable_bytes=2 * KB,
                            container_bytes=16 * KB, column_target_bytes=4 * KB),
        )
    if name == "slmdb":
        from repro.baselines import SLMDBOptions, SLMDBStore

        return SLMDBStore(
            system,
            SLMDBOptions(memtable_bytes=2 * KB, compaction_trigger_tables=3,
                         compaction_fanin=3),
        )
    raise ValueError(name)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 40), st.integers(0, 10**6)),
        st.tuples(st.just("delete"), st.integers(0, 40), st.just(0)),
        st.tuples(st.just("get"), st.integers(0, 40), st.just(0)),
        st.tuples(st.just("scan"), st.integers(0, 40), st.integers(1, 10)),
    ),
    min_size=1,
    max_size=120,
)


def apply_ops(store, ops):
    """Run ops against store and dict model, checking every read."""
    model = {}
    for op, idx, arg in ops:
        key = b"key%04d" % idx
        if op == "put":
            store.put(key, SizedValue(arg, 300))
            model[key] = arg
        elif op == "delete":
            store.delete(key)
            model.pop(key, None)
        elif op == "get":
            value, __ = store.get(key)
            expected = model.get(key)
            if expected is None:
                assert value is None, (key, value)
            else:
                assert value is not None and value.tag == expected, key
        else:  # scan
            pairs, __ = store.scan(key, arg)
            expected_keys = sorted(k for k in model if k >= key)[:arg]
            assert [k for k, __v in pairs] == expected_keys
            for k, v in pairs:
                assert v.tag == model[k]
    # final full verification after background work settles
    store.quiesce()
    for key, tag in model.items():
        value, __ = store.get(key)
        assert value is not None and value.tag == tag, key
    return model


@pytest.mark.parametrize("name", STORE_NAMES)
@settings(max_examples=25, deadline=None)
@given(ops=operations)
def test_store_matches_dict_model(name, ops):
    store = build_store(name)
    apply_ops(store, ops)


@pytest.mark.parametrize("name", STORE_NAMES)
def test_heavy_overwrite_stream(name):
    store = build_store(name)
    model = {}
    for i in range(2000):
        key = b"key%04d" % (i % 37)
        store.put(key, SizedValue(i, 300))
        model[key] = i
    store.quiesce()
    for key, tag in model.items():
        value, __ = store.get(key)
        assert value is not None and value.tag == tag


@pytest.mark.parametrize("name", STORE_NAMES)
def test_interleaved_deletes_and_rewrites(name):
    store = build_store(name)
    for i in range(300):
        store.put(b"key%04d" % (i % 20), SizedValue(("v", i), 300))
    for i in range(0, 20, 2):
        store.delete(b"key%04d" % i)
    for i in range(0, 20, 4):
        store.put(b"key%04d" % i, SizedValue("rewritten", 300))
    store.quiesce()
    for i in range(20):
        value, __ = store.get(b"key%04d" % i)
        if i % 4 == 0:
            assert value.tag == "rewritten"
        elif i % 2 == 0:
            assert value is None
        else:
            assert value is not None


# ------------------------------------------------- cluster-vs-flat oracle


def build_cluster_router(n_shards=4):
    from repro.bench.config import BenchScale
    from repro.cluster import Cluster, ShardRouter

    scale = BenchScale(
        memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=300
    )
    cluster = Cluster("miodb", n_shards=n_shards, scale=scale)
    return ShardRouter(cluster)


def apply_ops_pairwise(router, flat, ops):
    """The same op stream through a sharded router and a flat store must
    produce identical get and scan results at every step."""
    for op, idx, arg in ops:
        key = b"key%04d" % idx
        if op == "put":
            router.put(key, SizedValue(arg, 300))
            flat.put(key, SizedValue(arg, 300))
        elif op == "delete":
            router.delete(key)
            flat.delete(key)
        elif op == "get":
            routed, __ = router.get(key)
            direct, __ = flat.get(key)
            if direct is None:
                assert routed is None, key
            else:
                assert routed is not None and routed.tag == direct.tag, key
        else:  # scan
            routed_pairs, __ = router.scan(key, arg)
            direct_pairs, __ = flat.scan(key, arg)
            assert [k for k, __v in routed_pairs] == [
                k for k, __v in direct_pairs
            ]
            for (rk, rv), (__dk, dv) in zip(routed_pairs, direct_pairs):
                assert rv.tag == dv.tag, rk
    router.quiesce()
    flat.quiesce()
    routed_all = list(router.items())
    direct_all, __ = flat.scan(b"\x00", 10**6)
    assert [k for k, __v in routed_all] == [k for k, __v in direct_all]
    for (rk, rv), (__dk, dv) in zip(routed_all, direct_all):
        assert rv.tag == dv.tag, rk


@pytest.mark.cluster_smoke
@settings(max_examples=15, deadline=None)
@given(ops=operations)
def test_cluster_router_matches_flat_store(ops):
    apply_ops_pairwise(build_cluster_router(), build_store("miodb"), ops)


@pytest.mark.cluster_smoke
def test_cluster_router_matches_flat_store_heavy_stream():
    router = build_cluster_router()
    flat = build_store("miodb")
    ops = []
    for i in range(1500):
        ops.append(("put", i % 37, i))
        if i % 5 == 0:
            ops.append(("get", (i * 7) % 37, 0))
        if i % 11 == 0:
            ops.append(("delete", (i * 3) % 37, 0))
        if i % 13 == 0:
            ops.append(("scan", i % 37, 8))
    apply_ops_pairwise(router, flat, ops)
