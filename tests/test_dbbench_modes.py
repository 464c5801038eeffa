"""Tests for the extra db_bench modes and metamorphic store properties."""

import pytest

from repro.bench import make_store
from repro.bench.config import BenchScale
from repro.kvstore.values import SizedValue
from repro.sim.rng import XorShiftRng
from repro.workloads import (
    delete_random,
    fill_random,
    key_for,
    overwrite,
    seek_random,
)

KB = 1 << 10
SMALL = BenchScale(memtable_bytes=16 * KB, dataset_bytes=512 * KB, value_size=512,
                   nvm_buffer_bytes=128 * KB)


def test_overwrite_replaces_values():
    store, __ = make_store("miodb", SMALL)
    fill_random(store, 300, 512)
    result = overwrite(store, 200, 300, 512, seed=9)
    assert result.ops == 200
    store.quiesce()
    # at least some keys now carry overwrite tags
    rng = XorShiftRng(9)
    overwritten = {rng.next_below(300) for __ in range(200)}
    hits = 0
    for idx in overwritten:
        value, __lat = store.get(key_for(idx))
        if isinstance(value.tag, tuple) and value.tag[0] == "ow":
            hits += 1
    assert hits == len(overwritten)


def test_delete_random_removes_keys():
    store, __ = make_store("miodb", SMALL)
    fill_random(store, 200, 512)
    delete_random(store, 100, 200, seed=4)
    store.quiesce()
    rng = XorShiftRng(4)
    deleted = {rng.next_below(200) for __ in range(100)}
    for idx in deleted:
        value, __lat = store.get(key_for(idx))
        assert value is None
    survivors = set(range(200)) - deleted
    for idx in list(survivors)[:20]:
        value, __lat = store.get(key_for(idx))
        assert value is not None


def test_seek_random_scans():
    store, __ = make_store("miodb", SMALL)
    fill_random(store, 300, 512)
    result = seek_random(store, 50, 300, scan_length=5)
    assert result.ops == 50
    assert result.per_kind["scan"].count == 50


@pytest.mark.parametrize("name", ["miodb", "leveldb", "matrixkv"])
def test_metamorphic_insert_order_irrelevant_for_final_state(name):
    """Writing a set of distinct keys in two different orders must leave
    identical visible contents (the per-key newest write wins and no key
    interferes with another)."""
    keys = [key_for(i) for i in range(150)]
    contents = {}
    for run, seed in enumerate((11, 23)):
        store, __ = make_store(name, SMALL)
        order = list(range(150))
        XorShiftRng(seed).shuffle(order)
        for idx in order:
            store.put(keys[idx], SizedValue(idx, 512))
        store.quiesce()
        contents[run] = {
            k: v.tag for k, v in ((key, store.get(key)[0]) for key in keys)
        }
    assert contents[0] == contents[1]
