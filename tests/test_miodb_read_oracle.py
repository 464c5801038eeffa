"""MioDB's read path against the per-table walk it replaced.

``MioDB._get`` and the ``_batch_lookup`` closure hash a key once and test
the positions against each PMTable's filter bits; before, every table
ran its own gate (saturation test, hash, probe), ``may_contain`` in
``tests/support/oracles.py``.  That per-table walk is kept below as the
reference.  All three must return ``==`` values and float seconds,
charge the same device reads and emit the same traced transfers.

The middle part is about the closure's flat probe plan: it bisects the
``frozen_index()`` arrays it captured instead of calling into each table,
so it must fall back to the table for a list in rebuild back-off, be
replaced whenever settled background work relinks a list, and keep the
back-off informed of the lookups it served.

The last part pins what the laziness is for: writes, flushes, merges
and ``quiesce`` hash nothing and build no filter; the first get does.
"""

from contextlib import contextmanager

import pytest

from repro.baselines.leveldb import LevelDBStore
from repro.bloom.hashing import probe_positions
from repro.core import MioDB, MioOptions, miodb
from repro.kvstore.options import StoreOptions
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.obs.events import CAT_TRANSFER
from repro.skiplist.node import TOMBSTONE
from repro.skiplist.skiplist import SkipList
from repro.workloads.dbbench import fill_random
from repro.workloads.keys import key_for
from repro.workloads.ycsb import load_phase
from tests.support.oracles import may_contain
from tests.support.probes import built

KB = 1 << 10
KEY_SPACE = 400


def reference_get(store, key):
    """``MioDB._get`` as it was: every PMTable gates the key itself."""
    seconds = 0.0
    for table in (store.memtable, store.immutable):
        if table is None:
            continue
        node, cost = table.get(key)
        seconds += cost
        if node is not None:
            return (None if node.is_tombstone else node.value), seconds
    for level_tables in store.levels:
        for pmtable in reversed(level_tables):
            possible, probe_cost = may_contain(pmtable, key)
            seconds += probe_cost
            if not possible:
                continue
            node, cost = pmtable.get(key)
            seconds += cost
            if node is not None:
                return (None if node.is_tombstone else node.value), seconds
    value, cost = store.repository.get(key)
    seconds += cost
    if value is None or value is TOMBSTONE:
        return None, seconds
    return value, seconds


@contextmanager
def small_filters():
    """4 bits per key of *one* MemTable while the first flush fixes the
    filter geometry."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(miodb, "BLOOM_BITS_PER_KEY", 4)
        patch.setattr(miodb, "BLOOM_CAPACITY_TABLES", 1)
        yield


def populated(n_puts, use_blooms=True, trace=False):
    """An unquiesced store whose filters run from half full to saturated.

    4 bits per key of *one* MemTable: an L0 table sits near 0.5, a table
    merged from four or more is past the 0.9 cut-off and goes ungated.
    """
    system = HybridMemorySystem()
    options = MioOptions(
        memtable_bytes=8 * KB, sstable_bytes=8 * KB, num_levels=4,
        use_blooms=use_blooms,
    )
    store = MioDB(system, options)
    with small_filters():
        for i in range(n_puts):
            store.put(b"key%06d" % ((i * 7919) % KEY_SPACE), SizedValue(i, 256))
            if i % 13 == 5:
                store.delete(b"key%06d" % ((i * 31) % KEY_SPACE))
    recorder = system.attach_tracing() if trace else None
    return store, system, recorder


def probe_keys():
    """Live, overwritten, deleted and absent keys, inside and outside the range."""
    present = [b"key%06d" % i for i in range(KEY_SPACE)]
    absent = [b"key%06dzz" % i for i in range(0, KEY_SPACE, 3)]
    return present + absent + [b"", b"a", b"key", b"zzz"]


def hash_calls():
    """(hits, misses) of the position memo; any call at all moves one."""
    info = probe_positions.cache_info()
    return info.hits, info.misses


def visible(value):
    """A stored version as ``KVStore.get`` returns it: a tombstone is a miss."""
    return None if value is TOMBSTONE else value


def observe(system, recorder, lookup, key):
    """One lookup's full footprint: result, device counters, transfers."""
    devices = [d for d in (system.dram, system.nvm) if d is not None]
    before = [(d.bytes_read, d.read_ops) for d in devices]
    mark = len(recorder.events) if recorder is not None else 0
    value, seconds = lookup(key)
    reads = [
        (d.bytes_read - b, d.read_ops - o)
        for d, (b, o) in zip(devices, before)
    ]
    emitted = []
    if recorder is not None:
        emitted = [
            (e.track, e.name, e.ts, sorted(e.args.items()))
            for e in recorder.events[mark:]
        ]
        assert all(e.cat == CAT_TRANSFER for e in recorder.events[mark:])
    return visible(value), seconds, reads, emitted


# Whichever path runs first is the one that finds the filters unbuilt.
ORDERS = {
    "get-first": ("get", "batch", "reference"),
    "batch-first": ("batch", "reference", "get"),
    "reference-first": ("reference", "get", "batch"),
}


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("n_puts", [500, 900])
def test_three_read_paths_agree(n_puts, order, trace):
    store, system, recorder = populated(n_puts, trace=trace)
    blooms = [t.bloom for level in store.levels for t in level]
    assert not any(built(b) for b in blooms)
    closure = []

    def batch(key):
        # Taken on first use: asking for the closure already builds.
        if not closure:
            closure.append(store._batch_lookup())
        return closure[0](key)

    paths = {
        "get": store._get,
        "batch": batch,
        "reference": lambda key: reference_get(store, key),
    }
    hits = misses = nvm_reads = 0
    for key in probe_keys():
        seen = [
            observe(system, recorder, paths[name], key) for name in ORDERS[order]
        ]
        assert seen[0] == seen[1] == seen[2], key
        value, __, reads, emitted = seen[0]
        hits += value is not None
        misses += value is None
        nvm_reads += reads[1][1]
        if trace:
            assert len(emitted) == sum(ops for __, ops in reads)
    # Vacuity guards: hits and misses, both gate outcomes, every tier.
    assert hits > 100 and misses > 100 and nvm_reads > 100
    saturations = [b.saturation for b in blooms]
    assert max(saturations) > 0.9 and min(saturations) < 0.6
    assert store.repository.entry_count > 0 or n_puts == 500
    assert (store.immutable is not None) == (n_puts == 500)


def test_three_read_paths_agree_without_blooms():
    store, system, recorder = populated(900, use_blooms=False, trace=True)
    assert all(t.bloom is None for level in store.levels for t in level)
    before = hash_calls()
    lookup = store._batch_lookup()
    for key in probe_keys():
        seen = [
            observe(system, recorder, path, key)
            for path in (store._get, lookup, lambda k: reference_get(store, k))
        ]
        assert seen[0] == seen[1] == seen[2], key
    assert hash_calls() == before  # nothing gated: no hashing


# --------------------------------------------------- the flat probe plan


def live_lists(store):
    """Every non-empty skip list a get can reach, by name."""
    tables = [("memtable", store.memtable), ("immutable", store.immutable)]
    tables += [
        (f"L{level}#{t.table_id}", t)
        for level, level_tables in enumerate(store.levels)
        for t in level_tables
    ]
    tables.append(("repository", store.repository))
    return {
        name: t.skiplist for name, t in tables if t is not None and len(t.skiplist)
    }


def count_lookups(monkeypatch):
    """Count ``SkipList.lookup`` calls per list from here on."""
    calls = {}
    plain = SkipList.lookup

    def counted(self, key):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return plain(self, key)

    monkeypatch.setattr(SkipList, "lookup", counted)
    return calls


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("which", ["memtable", "pmtable", "repository"])
def test_plan_falls_back_for_a_list_in_rebuild_backoff(which, trace, monkeypatch):
    store, system, recorder = populated(900, trace=trace)
    store._batch_lookup()  # every list now has an index to go stale
    lists = live_lists(store)
    if which == "pmtable":
        # The biggest merged table: saturated filter, probed by every miss.
        which = max(
            (name for name in lists if name.startswith("L")),
            key=lambda name: len(lists[name]),
        )
    stale = lists[which]
    stale.insert(b"key-relinked", 1 << 40, SizedValue("x", 8), 8)
    assert stale.frozen_index() is None
    closure = store._batch_lookup()
    assert stale.frozen_index() is None  # the build did not rebuild it

    calls = count_lookups(monkeypatch)
    from_closure = 0
    others = (store._get, lambda key: reference_get(store, key))
    for key in probe_keys() + [b"key-relinked"]:
        seen = [observe(system, recorder, closure, key)]
        # Only the stale list goes through its table's own get.
        assert set(calls) <= {id(stale)}
        from_closure += sum(calls.values())
        seen += [observe(system, recorder, path, key) for path in others]
        assert seen[0] == seen[1] == seen[2], key
        calls.clear()
    assert from_closure > 100


def test_plan_on_a_quiesced_store_calls_no_table(system, monkeypatch):
    store = MioDB(system, MioOptions(memtable_bytes=8 * KB, num_levels=4))
    with small_filters():
        fill_random(store, 900, 256)
    store.quiesce()
    assert len(live_lists(store)) >= 4
    calls = count_lookups(monkeypatch)
    closure = store._batch_lookup()
    keys = [key_for(i) for i in range(0, 900, 7)] + probe_keys()
    found = [closure(key) for key in keys]
    assert not calls
    # ... which is not because nothing was found or nothing counts.
    assert found == [store._get(key) for key in keys]
    assert sum(value is not None for value, __ in found) > 100
    assert len(calls) >= 4


def test_batch_across_a_flush_and_merges_equals_the_get_stream():
    keys = probe_keys()[:160]
    batched, system_b, __ = populated(500)
    single, system_s, __ = populated(500)
    assert batched.immutable is not None  # a flush is in flight
    merges = system_b.stats.get("compact.count")
    plans = []
    build = batched._batch_lookup

    def counting_build():
        plans.append(build())
        return plans[-1]

    batched._batch_lookup = counting_build
    results = batched.multi_get(keys)
    # The batch saw the flush land and merges relink lists under it.
    assert batched.immutable is None
    assert system_b.stats.get("compact.count") >= merges + 3
    assert len(plans) >= 4

    assert results == [single.get(key) for key in keys]
    assert system_b.clock.now == system_s.clock.now
    assert system_b.stats.snapshot() == system_s.stats.snapshot()
    for kind in ("get", "put", "delete"):
        assert list(system_b.latency.samples_since(kind, 0)) == list(
            system_s.latency.samples_since(kind, 0)
        )
    for a, b in zip(system_b.devices(), system_s.devices()):
        assert (a.bytes_read, a.read_ops) == (b.bytes_read, b.read_ops)


@pytest.mark.parametrize("credited", [True, False], ids=["credited", "control"])
def test_alternating_batches_and_merges_keep_the_rebuild_backoff_at_8(
    credited, monkeypatch
):
    """A captured index is used through the plan alone, so the plan
    reports its use; otherwise the back-off reads every index a plan
    built as never used and doubles its rebuild threshold."""
    if not credited:
        monkeypatch.setattr(SkipList, "credit_index", lambda *args: None)
    system = HybridMemorySystem()
    store = MioDB(system, MioOptions(
        memtable_bytes=8 * KB, num_levels=4, use_blooms=False,
    ))
    thresholds = set()
    tag = 0
    for rnd in range(8):
        merges = system.stats.get("compact.count")
        store.multi_put([
            (b"key%06d" % ((tag + j) * 7919 % KEY_SPACE), SizedValue(tag + j, 256))
            for j in range(100)
        ])
        tag += 100
        store.quiesce()
        assert system.stats.get("compact.count") > merges
        # Absent keys: every one of them probes every list.
        store.multi_get([b"key%06dzz" % (rnd * 64 + j) for j in range(64)])
        lists = live_lists(store)
        assert len(lists) >= 3
        thresholds |= {skiplist._rebuild_after for skiplist in lists.values()}
    assert thresholds == ({8} if credited else {8, 16})


# ------------------------------------------- writes build nothing; reads do


def test_miodb_fill_and_quiesce_build_no_filter(system):
    # An earlier test that probed the same keys at the same filter size
    # would turn the misses asserted below into memo hits.
    probe_positions.cache_clear()
    before = hash_calls()
    store = MioDB(system, MioOptions(memtable_bytes=8 * KB, num_levels=4))
    fill_random(store, 900, 256)
    store.quiesce()
    blooms = [t.bloom for level in store.levels for t in level]
    assert len(blooms) >= 2
    assert system.stats.get("compact.count") > 0  # merged filters included
    assert not any(built(b) for b in blooms)
    assert sum(b.added for b in blooms) == sum(len(b._pending) for b in blooms)
    assert hash_calls() == before

    # An absent key walks every table, so the first get builds them all.
    assert store.get(b"user-absent")[0] is None
    assert all(built(b) for b in blooms)
    assert hash_calls()[1] > before[1]


def test_leveldb_load_builds_no_filter(system):
    # An earlier test that probed the same keys at the same filter size
    # would turn the misses asserted below into memo hits.
    probe_positions.cache_clear()
    before = hash_calls()
    store = LevelDBStore(
        system, StoreOptions(memtable_bytes=8 * KB, sstable_bytes=8 * KB)
    )
    load_phase(store, 600, 256)
    store.quiesce()
    blooms = [t.bloom for level in store.lsm.levels for t in level]
    assert len(blooms) >= 3
    assert system.stats.get("compact.count") > 0
    assert not any(built(b) for b in blooms)
    assert hash_calls() == before

    # A get only builds the filters of the tables whose range covers it.
    assert store.get(key_for(300))[0] is not None
    n_built = sum(built(b) for b in blooms)
    assert 1 <= n_built <= len(blooms)
    assert hash_calls()[1] > before[1]
