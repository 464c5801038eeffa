"""Run the MioDB invariant verifier across stressful scenarios."""

import pytest

from repro.core import MioDB, MioOptions, recover
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.sim.rng import XorShiftRng
from tests.support.verifier import InvariantViolation, verify_store

KB = 1 << 10


def build(memtable_kb=4, levels=4):
    system = HybridMemorySystem()
    store = MioDB(system, MioOptions(memtable_bytes=memtable_kb * KB,
                                     num_levels=levels))
    return store


def test_fresh_store_verifies():
    verify_store(build())


def test_invariants_hold_during_fill():
    store = build()
    for i in range(2500):
        store.put(b"key%06d" % ((i * 7919) % 600), SizedValue(i, 512))
        if i % 250 == 0:
            verify_store(store)
    verify_store(store)
    store.quiesce()
    verify_store(store)


def test_invariants_hold_with_deletes_and_overwrites():
    store = build(levels=3)
    rng = XorShiftRng(5)
    for i in range(2000):
        key = b"key%06d" % rng.next_below(300)
        if rng.next_below(5) == 0:
            store.delete(key)
        else:
            store.put(key, SizedValue(i, 512))
    verify_store(store)
    store.quiesce()
    verify_store(store)


def test_invariants_hold_after_recovery():
    system = HybridMemorySystem()
    injector = CrashInjector()
    store = MioDB(system, MioOptions(memtable_bytes=4 * KB, num_levels=3),
                  crash_injector=injector)
    injector.arm("put.after_wal", 900)
    try:
        for i in range(2000):
            store.put(b"key%06d" % (i % 400), SizedValue(i, 512))
    except SimulatedCrash:
        pass
    recovered, __ = recover(store)
    verify_store(recovered)
    for i in range(500):
        recovered.put(b"key%06d" % (i % 400), SizedValue(("post", i), 512))
    recovered.quiesce()
    verify_store(recovered)


def test_invariants_hold_in_ssd_mode():
    system = HybridMemorySystem(ssd=True)
    store = MioDB(system, MioOptions(memtable_bytes=4 * KB, num_levels=3))
    for i in range(1500):
        store.put(b"key%06d" % (i % 300), SizedValue(i, 512))
    verify_store(store)
    store.quiesce()
    verify_store(store)


def test_verifier_detects_planted_age_inversion():
    store = build()
    for i in range(600):
        store.put(b"key%06d" % (i % 100), SizedValue(i, 512))
    store.quiesce()
    # plant a corruption: push an absurdly new version into an old source
    target = None
    for level_tables in store.levels:
        for pmtable in level_tables:
            target = pmtable
    if target is None:
        pytest.skip("no buffer table to corrupt at this scale")
    target.skiplist.insert(b"key%06d" % 1, store.seq + 999, b"bad", 3)
    store.memtable.insert(b"key%06d" % 1, store.seq + 1, b"ok", 2)
    with pytest.raises(InvariantViolation):
        verify_store(store)


def test_verifier_detects_planted_repository_tombstone():
    from repro.skiplist.node import TOMBSTONE

    store = build(levels=2)
    for i in range(800):
        store.put(b"key%06d" % (i % 200), SizedValue(i, 512))
    store.quiesce()
    if store.repository.entry_count == 0:
        pytest.skip("repository unused at this scale")
    store.repository.skiplist.insert(b"zzz", store.seq + 1, TOMBSTONE, 0)
    with pytest.raises(InvariantViolation):
        verify_store(store)
