"""Direct unit tests for PMTables (the elastic buffer's element)."""

import pytest

from repro.bloom.filter import BloomFilter
from repro.core.pmtable import PMTable
from repro.persist.arena import Arena
from repro.sim.rng import XorShiftRng
from repro.skiplist.skiplist import SkipList
from tests.support.oracles import may_contain


def make(system, entries, bloom_capacity=64):
    sl = SkipList(XorShiftRng(9))
    for key, seq in entries:
        sl.insert(key, seq, b"v", 16)
    arena = Arena(system.nvm, 4096, "pmt")
    bloom = BloomFilter.for_capacity(bloom_capacity, 16)
    for key, __ in entries:
        bloom.add(key)
    return PMTable(system, sl, [arena], bloom, level=0)


def test_basic_properties(system):
    table = make(system, [(b"a", 1), (b"b", 2)])
    assert table.entries == 2
    assert table.data_bytes == table.skiplist.data_bytes
    assert table.footprint_bytes == 4096
    assert not table.swizzled and not table.busy and not table.reclaimable


def test_get_charges_nvm(system):
    table = make(system, [(b"a", 1)])
    before = system.nvm.bytes_read
    node, seconds = table.get(b"a")
    assert node is not None
    assert seconds > 0
    assert system.nvm.bytes_read > before


def test_may_contain_costs_and_filters(system):
    table = make(system, [(b"present", 1)])
    possible, cost = may_contain(table, b"present")
    assert possible and cost > 0
    possible, cost_miss = may_contain(table, b"definitely-absent-key")
    assert not possible
    assert cost_miss < cost  # short-circuited miss is cheaper


def test_may_contain_without_bloom_is_free(system):
    sl = SkipList(XorShiftRng(1))
    arena = Arena(system.nvm, 64)
    table = PMTable(system, sl, [arena], bloom=None)
    assert may_contain(table, b"x") == (True, 0.0)


def test_saturated_bloom_is_skipped(system):
    table = make(system, [(b"k%03d" % i, i + 1) for i in range(60)],
                 bloom_capacity=2)
    assert table.bloom.saturation > 0.9
    possible, cost = may_contain(table, b"whatever")
    assert possible
    assert cost == 0.0


def test_absorb_transfers_arenas(system):
    a = make(system, [(b"a", 1)])
    b = make(system, [(b"b", 2)])
    a.absorb(b)
    assert a.footprint_bytes == 8192
    assert b.arenas == []
    assert b.reclaimable


def test_merge_bloom_widens(system):
    a = make(system, [(b"a", 1)])
    b = make(system, [(b"b", 2)])
    assert not a.bloom.may_contain(b"b")
    a.merge_bloom_from(b)
    assert a.bloom.may_contain(b"b")


def test_reclaim_releases_all_arenas(system):
    a = make(system, [(b"a", 1)])
    b = make(system, [(b"b", 2)])
    a.absorb(b)
    in_use_before = system.nvm.bytes_in_use
    freed = a.reclaim()
    assert freed == 8192
    assert system.nvm.bytes_in_use == in_use_before - 8192
    assert a.reclaimable
    # idempotent
    assert a.reclaim() == 0
