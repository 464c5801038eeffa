"""Tests for the shared scan kernel and MioDB's merged view.

Property tests of :func:`repro.kvstore.scans.merged_scan`, then an
oracle: the generator implementation the kernel replaced lives on below
and every store's scan must agree with it to the last bit of simulated
time and the last device transfer -- also on a settled MioDB, where the
:class:`~repro.kvstore.scans.MergedView` answers most scans, and on one
taking writes, flushes and compactions, where the view merges the
MemTables live beside its members.  Then one case per rule under which
the view must stop serving, and one per change it must serve through;
last, a randomised stress test of the view against the oracle.
"""

import bisect
import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.lsm import LeveledLSM
from repro.baselines.matrixkv import MatrixKVStore
from repro.baselines.novelsm import NoveLSMStore
from repro.baselines.novelsm_nosst import NoveLSMNoSSTStore
from repro.baselines.slmdb import SLMDBStore
from repro.bench.config import BenchScale
from repro.bench.factory import STORE_NAMES, make_store
from repro.core import MioDB
from repro.core.repository import NvmRepository
from repro.kvstore.scans import MergedView, merged_scan
from repro.mem.system import HybridMemorySystem
from repro.obs.events import CAT_TRANSFER
from repro.skiplist.node import NODE_OVERHEAD_BYTES, TOMBSTONE
from repro.skiplist.skiplist import SkipList
from repro.sim.rng import XorShiftRng
from repro.sstable.table import entry_frame_bytes

KB = 1 << 10

entry_lists = st.lists(
    st.tuples(st.binary(min_size=1, max_size=4), st.booleans()),
    max_size=40,
)


def build_sources(spec_lists):
    """Turn key/tombstone specs into scan sources with global seqs.

    Sources alternate between the two cursor shapes: even positions
    become skip lists on DRAM, odd ones sorted runs on NVM.
    """
    system = HybridMemorySystem()
    seq = 0
    sources = []
    model = {}
    for position, spec in enumerate(spec_lists):
        rows = []
        for key, is_tombstone in spec:
            seq += 1
            value = TOMBSTONE if is_tombstone else ("v", seq)
            rows.append((key, seq, value, 10))
            # later seq wins per key
            if is_tombstone:
                model.pop(key, None)
            else:
                model[key] = value
        if position % 2 == 0:
            skiplist = SkipList()
            for key, row_seq, value, nbytes in rows:
                skiplist.insert(key, row_seq, value, nbytes)
            sources.append((skiplist, system.dram))
        else:
            rows.sort(key=lambda e: (e[0], -e[1]))
            sources.append((rows, 0, system.nvm))
    return system, sources, model


@settings(max_examples=80)
@given(st.lists(entry_lists, max_size=5))
def test_merged_scan_matches_model(spec_lists):
    system, sources, model = build_sources(spec_lists)
    pairs, __ = merged_scan(system, b"", 10**6, sources)
    assert pairs == sorted(model.items())


@settings(max_examples=60)
@given(
    st.lists(entry_lists, max_size=4),
    st.binary(max_size=3),
    st.integers(min_value=0, max_value=8),
)
def test_merged_scan_count_is_prefix(spec_lists, start_key, count):
    system, sources, model = build_sources(spec_lists)
    # run sources arrive positioned; skip lists are sought by the kernel
    sources = [
        s if len(s) == 2
        else (s[0], bisect.bisect_left([e[0] for e in s[0]], start_key), s[2])
        for s in sources
    ]
    limited, __ = merged_scan(system, start_key, count, sources)
    full = sorted(kv for kv in model.items() if kv[0] >= start_key)
    assert limited == full[:count]


def test_merged_entries_keeps_seq_and_bytes():
    system = HybridMemorySystem()
    newest = SkipList()
    newest.insert(b"k", 5, ("v", 5), 10)
    run = [(b"k", 1, ("v", 1), 10), (b"z", 2, ("v", 2), 7)]
    out, seconds = merged_scan(
        system, b"a", 10, [(newest, system.dram), (run, 0, system.nvm)]
    )
    # The skip list's seq-5 version shadows the run's seq-1 one; seq and
    # footprint stay readable off the sources.
    assert out == [(b"k", ("v", 5)), (b"z", ("v", 2))]
    node = newest.seek(b"k")[0]
    assert (node.seq, node.nbytes) == (5, 1 + 10 + NODE_OVERHEAD_BYTES)
    assert seconds > 0


def test_merged_scan_laziness():
    """Sources advance only as far as the requested count requires."""
    system = HybridMemorySystem()
    a = [(b"a%03d" % i, 1000 + i, "v", 1) for i in range(100)]
    b = [(b"z", 1, "v", 1)]
    sources = [(a, 0, system.nvm), (b, 0, system.nvm)]
    pairs, __ = merged_scan(system, b"a", 3, sources)
    assert len(pairs) == 3
    # one read per source head, one per advance, none after the last pair
    assert system.nvm.read_ops == len(sources) + len(pairs) - 1
    assert merged_scan(system, b"a", 0, sources) == ([], 0.0)
    assert system.nvm.read_ops == len(sources) + len(pairs) - 1


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("index", [0, 1], ids=["advance", "head"])
def test_negative_read_size_rejected(index, traced):
    system = HybridMemorySystem()
    if traced:
        system.attach_tracing()
    # frame bytes 1 - 100 + 24 < 0: read as the run's head, or on advance
    run = [(b"a", 2, "v", 1), (b"b", 1, "v", -100)]
    with pytest.raises(ValueError, match="negative read size"):
        merged_scan(system, b"a", 10, [(run, index, system.nvm)])


# ------------------------------------------------------------------ oracle
#
# The implementation the cursor kernel replaced: three stacked generators
# per item over the stdlib's lazy merge.  Kept as the reference the stores
# are compared against; not used by ``src/``.  One change from the
# original: ``heapq.merge`` orders by a ``key``, which breaks an exact
# ``(key, seq)`` tie by stream order, as the kernel does (keyed tuples
# compared the tied items' values instead).


class CostCell:
    def __init__(self) -> None:
        self.seconds = 0.0


def skiplist_stream(system, skiplist, start_key, device, cost):
    node, hops = skiplist.first_ge(start_key)
    cost.seconds += device.search_time(max(hops, 1))
    hop_cost = device.hop_time()
    while node is not None:
        cost.seconds += hop_cost
        cost.seconds += device.read(node.nbytes, sequential=True)
        yield (node.key, node.seq, node.value, node.nbytes)
        node = node.next[0]


def entry_list_stream(system, entries, start_index, device, cost):
    for entry in entries[start_index:]:
        nbytes = entry_frame_bytes(entry)
        cost.seconds += device.read(nbytes, sequential=True)
        cost.seconds += system.cpu.deserialize_time(nbytes)
        yield entry


def old_merged_scan(streams, count):
    if count <= 0:
        return []
    out = []
    last_key = None
    for item in heapq.merge(*streams, key=lambda item: (item[0], -item[1])):
        key, __seq, value, __nbytes = item
        if key == last_key:
            continue
        last_key = key
        if value is TOMBSTONE:
            continue
        out.append((key, value))
        if len(out) >= count:
            break
    return out


def old_lsm_streams(lsm: LeveledLSM, key, cost):
    return [
        entry_list_stream(
            lsm.system, table.entries, bisect.bisect_left(table.keys, key),
            lsm.device, cost,
        )
        for level_tables in lsm.levels
        for table in level_tables
        if table.max_key >= key
    ]


def old_nosst_scan(store, start_key, count):
    node, hops = store.skiplist.first_ge(start_key)
    seconds = store.system.nvm.search_time(max(hops, 1))
    pairs = []
    touched = 0
    last_key = None
    while node is not None and len(pairs) < count:
        if node.key != last_key:
            last_key = node.key
            if not node.is_tombstone:
                pairs.append((node.key, node.value))
                touched += node.nbytes
        node = node.next[0]
        seconds += store.system.nvm.hop_time()
    seconds += store.system.nvm.read(touched, sequential=True)
    return pairs, seconds


def old_scan(store, start_key, count):
    """What each store's ``_scan`` did before the cursor kernel."""
    if isinstance(store, NoveLSMNoSSTStore):
        return old_nosst_scan(store, start_key, count)
    system = store.system
    cost = CostCell()
    tables = (store.memtable, store.immutable)
    if isinstance(store, NoveLSMStore):
        tables += (store.nvm_mt, store.nvm_imm)
    streams = [
        skiplist_stream(system, t.skiplist, start_key, t.device, cost)
        for t in tables
        if t is not None
    ]
    if isinstance(store, MioDB):
        for level_tables in store.levels:
            for pmtable in level_tables:
                streams.append(
                    skiplist_stream(system, pmtable.skiplist, start_key, system.nvm, cost)
                )
        if isinstance(store.repository, NvmRepository):
            streams.append(
                skiplist_stream(
                    system, store.repository.skiplist, start_key, system.nvm, cost
                )
            )
        else:
            streams.extend(old_lsm_streams(store.repository.lsm, start_key, cost))
    elif isinstance(store, SLMDBStore):
        for table in store.tables:
            if table.released or table.max_key < start_key:
                continue
            idx = bisect.bisect_left(table.keys, start_key)
            streams.append(
                entry_list_stream(system, table.entries, idx, system.nvm, cost)
            )
    else:
        if isinstance(store, MatrixKVStore):
            for row in store.rows:
                idx = bisect.bisect_left(row.keys, start_key)
                streams.append(
                    entry_list_stream(system, row.entries, idx, system.nvm, cost)
                )
            if store._inflight_column:
                window = sorted(
                    (e for k, e in store._inflight_column.items() if k >= start_key),
                    key=lambda e: (e[0], -e[1]),
                )
                streams.append(entry_list_stream(system, window, 0, system.nvm, cost))
        streams.extend(old_lsm_streams(store.lsm, start_key, cost))
    return old_merged_scan(streams, count), cost.seconds


def key_of(i: int) -> bytes:
    return b"key%05d" % i


def populate(store, key_space: int) -> None:
    """Fill, quiesce, then a quarter overwritten or deleted and left in flight."""
    rng = random.Random(14)
    order = list(range(key_space))
    rng.shuffle(order)
    for i in order:
        store.put(key_of(i), b"x" * rng.randrange(40, 200))
    store.quiesce()
    for __ in range(key_space // 4):
        i = rng.randrange(key_space)
        if rng.random() < 0.3:
            store.delete(key_of(i))
        else:
            # the same key twice: duplicate versions inside one table
            store.put(key_of(i), b"y" * rng.randrange(40, 200))
            store.put(key_of(i), b"z" * rng.randrange(40, 200))


def drive_scans(store, key_space: int, n_scans: int = 120):
    """Scans of mixed lengths with writes in between; returns every result."""
    rng = random.Random(41)
    results = []
    for step in range(n_scans):
        start = key_of(rng.randrange(key_space + 10))
        results.append(store.scan(start, rng.choice((0, 1, 5, 20, 100))))
        if step % 5 == 4:
            # go stale mid-run: the MemTable index, then flushes and merges
            i = rng.randrange(key_space)
            if rng.random() < 0.5:
                store.delete(key_of(i))
            else:
                store.put(key_of(i), b"w" * rng.randrange(40, 200))
    return results


def transfers(recorder):
    return [
        (e.track, e.name, e.ts, sorted(e.args.items()))
        for e in recorder.events
        if e.cat == CAT_TRANSFER
    ]


def device_counters(system):
    return {
        name: (device.bytes_read, device.read_ops)
        for name, device in (("dram", system.dram), ("nvm", system.nvm), ("ssd", system.ssd))
        if device is not None
    }


def build(name: str, key_space: int, old: bool, mode: str):
    ssd = name.endswith("+ssd")
    scale = BenchScale(memtable_bytes=4 * KB, nvm_buffer_bytes=32 * KB)
    # few buffer levels, so 600 keys already reach MioDB's repository
    overrides = {"num_levels": 3} if name.startswith("miodb") else {}
    store, system = make_store(name.replace("+ssd", ""), scale, ssd=ssd, **overrides)
    populate(store, key_space)
    if old:
        store._scan = lambda start_key, count: old_scan(store, start_key, count)
    recorder = None
    if mode == "traced":
        recorder = system.attach_tracing()
    elif mode == "live":
        # The live recorder switches the device hooks on only for
        # head-sampled runs; seed 4 samples two of drive_scans' ops.
        recorder = system.attach_live(seed=4)
    return store, system, recorder


@pytest.mark.parametrize("mode", ["plain", "traced", "live"])
@pytest.mark.parametrize("name", STORE_NAMES + ("miodb+ssd",))
def test_scan_matches_generator_oracle(name, mode):
    key_space = 600
    new, new_system, new_rec = build(name, key_space, old=False, mode=mode)
    old, old_system, old_rec = build(name, key_space, old=True, mode=mode)
    if isinstance(new, MioDB):
        # vacuity guard: MemTable, several PMTables and the repository all hold data
        assert len(new.memtable.skiplist) > 0
        assert sum(new.level_table_counts()) >= 2
        assert new.repository.entry_count > 0

    new_results = drive_scans(new, key_space)
    old_results = drive_scans(old, key_space)

    assert any(len(pairs) == 100 for pairs, __ in new_results)
    # pairs and float latencies, strictly equal
    assert new_results == old_results
    assert new_system.clock.now == old_system.clock.now
    assert device_counters(new_system) == device_counters(old_system)
    if new_rec is not None:
        # a live recorder keeps the transfers of head-sampled runs only
        floor = len(new_results) if mode == "traced" else 16
        assert len(transfers(new_rec)) >= floor
        assert transfers(new_rec) == transfers(old_rec)


def drive_settled(store, key_space: int, n_scans: int):
    """Quiesce, then scans alone: once background work is done the
    sources stand still, so a merged view builds and serves."""
    store.quiesce()
    rng = random.Random(43)
    return [
        store.scan(key_of(rng.randrange(key_space + 10)), rng.choice((1, 5, 20, 100)))
        for __ in range(n_scans)
    ]


@pytest.mark.parametrize("mode", ["plain", "live"])
@pytest.mark.parametrize("name", ["miodb", "miodb+ssd"])
def test_settled_scans_match_generator_oracle(name, mode):
    key_space = 600
    n_scans = 400
    new, new_system, new_rec = build(name, key_space, old=False, mode=mode)
    old, old_system, old_rec = build(name, key_space, old=True, mode=mode)
    new_results = drive_settled(new, key_space, n_scans)
    old_results = drive_settled(old, key_space, n_scans)

    assert new_results == old_results
    assert new_system.clock.now == old_system.clock.now
    assert device_counters(new_system) == device_counters(old_system)
    if new_rec is not None:
        assert len(transfers(new_rec)) >= 16
        assert transfers(new_rec) == transfers(old_rec)
    if name == "miodb":
        # vacuity guard: most of the drive was answered by the view
        assert new.merged_view.served >= n_scans // 2
    else:
        # the SSD repository's sources are sorted runs: never a view
        assert new.merged_view.served == 0


class ServedScans:
    """Wraps a store's view: records each scan the view served, with
    the sources it merged live (those that are not its members)."""

    def __init__(self, view):
        self.view = view
        self.inner = view.scan
        view.scan = self
        self.served = []

    def __call__(self, system, start_key, count, sources):
        before = self.view.served
        pairs, seconds = self.inner(system, start_key, count, sources)
        if self.view.served > before:
            members = list(self.view._members)
            live = [skiplist for skiplist, __ in sources if skiplist not in members]
            self.served.append((start_key, count, pairs, live, members))
        return pairs, seconds


def newest(skiplists, key):
    """The newest version of ``key`` among ``skiplists``, or ``None``."""
    found = [node for node in (sl.get(key)[0] for sl in skiplists) if node is not None]
    return max(found, key=lambda node: node.seq, default=None)


def live_source_cases(record):
    """Per served scan: (live sources, a live tombstone shadowed a live
    member key, the ``count``-th pair came from a live source)."""
    for start_key, count, pairs, live, members in record:
        end = pairs[-1][0] if len(pairs) == count else None
        shadowed = False
        for skiplist in live:
            node, __ = skiplist.first_ge(start_key)
            while node is not None and (end is None or node.key <= end):
                if node.value is TOMBSTONE:
                    mine = newest(live, node.key)
                    theirs = newest(members, node.key)
                    shadowed |= (
                        mine.value is TOMBSTONE and theirs is not None
                        and theirs.value is not TOMBSTONE and mine.seq > theirs.seq
                    )
                node = node.next[0]
        counted = False
        if len(pairs) == count:
            key, value = pairs[-1]
            mine = newest(live, key)
            counted = mine is not None and mine.value is value
        yield len(live), shadowed, counted


def drive_live_sources(store, key_space: int, n_scans: int):
    """Quiesce, scans until a view serves, then scans mixed with puts
    and deletes, each followed by a scan from just before the key it
    wrote: the MemTable changes, flushes and compacts under the view."""
    store.quiesce()
    rng = random.Random(47)
    results = []
    for step in range(n_scans):
        start = key_of(rng.randrange(key_space + 10))
        if step >= 100 and step % 3 == 0:
            i = rng.randrange(key_space)
            if rng.random() < 0.4:
                store.delete(key_of(i))
            else:
                store.put(key_of(i), b"v" * rng.randrange(40, 200))
            start = key_of(max(0, i - rng.randrange(3)))
        results.append(store.scan(start, rng.choice((1, 2, 5, 20, 100))))
    return results


@pytest.mark.parametrize("mode", ["plain", "live"])
def test_live_sources_match_generator_oracle(mode):
    """The view merging the MemTable, the immutable MemTable and freshly
    flushed PMTables live beside its members equals the generator
    kernel while writes, flushes and compactions go on."""
    key_space = 600
    n_scans = 600
    new, new_system, new_rec = build("miodb", key_space, old=False, mode=mode)
    old, old_system, old_rec = build("miodb", key_space, old=True, mode=mode)
    record = ServedScans(new.merged_view)
    before = new_system.stats.snapshot()
    new_results = drive_live_sources(new, key_space, n_scans)
    old_results = drive_live_sources(old, key_space, n_scans)

    assert new_results == old_results
    assert new_system.clock.now == old_system.clock.now
    assert device_counters(new_system) == device_counters(old_system)
    if new_rec is not None:
        assert len(transfers(new_rec)) >= 16
        assert transfers(new_rec) == transfers(old_rec)
    # Vacuity guards: the drive flushed and compacted, the view served
    # most of it, and the served scans took each live-source branch.
    after = new_system.stats.snapshot()
    assert after["flush.count"] > before["flush.count"]
    assert after["compact.count"] > before["compact.count"]
    assert len(record.served) >= n_scans // 2
    cases = list(live_source_cases(record.served))
    assert any(n_live >= 2 for n_live, __, __ in cases)
    assert any(shadowed for __, shadowed, __ in cases)
    assert any(counted for __, __, counted in cases)


# ------------------------------------------------------ view invalidation


def view_lists():
    """Two overlapping skip lists with shadowed versions and tombstones."""
    system = HybridMemorySystem()
    newer, older = SkipList(XorShiftRng(3)), SkipList(XorShiftRng(5))
    seq = 0
    for i in range(0, 240, 2):
        seq += 1
        older.insert(key_of(i), seq, ("old", i), 40 + i % 50)
    for i in range(0, 240, 3):
        seq += 1
        value = TOMBSTONE if i % 7 == 0 else ("new", i)
        newer.insert(key_of(i), seq, value, 0 if value is TOMBSTONE else 60 + i % 30)
    return system, newer, older


class ViewProbe:
    """Runs each scan through the view and through the kernel, and
    requires the same pairs, seconds, device counters and transfers."""

    def __init__(self, system):
        self.system = system
        self.view = MergedView()

    def _counted(self, scan):
        system = self.system
        before = device_counters(system)
        recorder = system.obs
        mark = len(recorder.events) if recorder is not None else 0
        result = scan()
        after = device_counters(system)
        moved = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
        events = []
        if recorder is not None:
            events = [
                (e.name, sorted(e.args.items()))
                for e in recorder.events[mark:] if e.cat == CAT_TRANSFER
            ]
        return result, moved, events

    def scan(self, sources, start: bytes, count: int = 7) -> bool:
        """One checked scan; True when the view answered it."""
        served = self.view.served
        got = self._counted(lambda: self.view.scan(self.system, start, count, sources))
        want = self._counted(lambda: merged_scan(self.system, start, count, sources))
        assert got == want
        self.pairs = got[0][0]
        assert self.pairs, "scan of nothing"
        return self.view.served > served

    def settle(self, sources) -> None:
        """Scan until the view answers."""
        for i in range(500):
            if self.scan(sources, key_of(i % 200)):
                return
        pytest.fail("the view never served")


def _write_after_build(probe, system, newer, older):
    # A write to a member relinks it, so its frozen index is rebuilt
    # (after the back-off) as a new tuple.
    older.insert(key_of(41), 10_000, ("late", 41), 77)
    return [(newer, system.dram), (older, system.nvm)]


def _another_device(probe, system, newer, older):
    # Same lists, same frozen indexes, another device for the member.
    return [(newer, system.dram), (older, system.dram)]


def _another_listing(probe, system, newer, older):
    # The member dropped, then the two listed the other way round.
    assert not probe.scan([(newer, system.dram)], key_of(39))
    return [(older, system.nvm), (newer, system.dram)]


def _update_in_place(probe, system, newer, older):
    # Payload, seq and size move with no structural version bump.
    node, __ = older.lookup(key_of(40))
    older.update_in_place(node, 20_000, ("in-place", 40), 900)
    return [(newer, system.dram), (older, system.nvm)]


def _recorder(probe, system, newer, older):
    # Transfer events are emitted per read, so the kernel must run.
    system.attach_tracing()
    return [(newer, system.dram), (older, system.nvm)]


@pytest.mark.parametrize(
    "change",
    [_write_after_build, _another_device, _another_listing, _update_in_place,
     _recorder],
    ids=lambda f: f.__name__.strip("_"),
)
def test_the_view_stops_serving_when_a_validity_rule_breaks(change):
    system, newer, older = view_lists()
    probe = ViewProbe(system)
    probe.settle([(newer, system.dram), (older, system.nvm)])
    sources = change(probe, system, newer, older)
    # Every scan from the change on equals the kernel's, over the changed
    # range, until (recorder aside) a new view serves the new sources.
    assert not probe.scan(sources, key_of(36))
    served_again = False
    for i in range(500):
        served_again = probe.scan(sources, key_of(36 + i % 12)) or served_again
        if i >= 12 and served_again:
            break
    assert served_again == (change is not _recorder)


def twin_list(older):
    """A skip list holding, for keys 30..60, older's exact ``(key, seq)``
    versions with values of its own."""
    twin = SkipList(XorShiftRng(9))
    node, __ = older.first_ge(key_of(30))
    while node.key < key_of(60):
        twin.insert(node.key, node.seq, ("twin", node.key), 33)
        node = node.next[0]
    return twin


def _write_to_first(system, newer, older):
    # The first source is merged live: a put and a delete change nothing.
    newer.insert(key_of(41), 10_000, ("late", 41), 77)
    newer.insert(key_of(44), 10_001, TOMBSTONE, 0)
    return [(newer, system.dram), (older, system.nvm)]


def _source_inserted(system, newer, older):
    # A source listed since the build (a flushed PMTable) is merged live.
    extra = SkipList(XorShiftRng(7))
    for i in range(31, 60, 2):
        extra.insert(key_of(i), 30_000 + i, ("extra", i), 50)
    return [(newer, system.dram), (extra, system.nvm), (older, system.nvm)]


def _tie_listed_before(system, newer, older):
    # Equal (key, seq) versions leave in listing order: the twin's win.
    return [(newer, system.dram), (twin_list(older), system.dram),
            (older, system.nvm)]


def _tie_listed_after(system, newer, older):
    # ... and lose when the twin is listed after the member.
    return [(newer, system.dram), (older, system.nvm),
            (twin_list(older), system.nvm)]


@pytest.mark.parametrize(
    "change",
    [_write_to_first, _source_inserted, _tie_listed_before, _tie_listed_after],
    ids=lambda f: f.__name__.strip("_"),
)
def test_the_view_keeps_serving_beside_live_sources(change):
    system, newer, older = view_lists()
    probe = ViewProbe(system)
    probe.settle([(newer, system.dram), (older, system.nvm)])
    sources = change(system, newer, older)
    twins = 0
    for i in range(120):
        # every scan served and equal to merged_scan, over the changed range
        assert probe.scan(sources, key_of(30 + i % 30), 1 + i % 9)
        twins += sum(value[0] == "twin" for __, value in probe.pairs)
    assert (twins > 0) == (change is _tie_listed_before)


def scan_past_a_negative_size(listed_first: bool) -> MergedView:
    """Short scans that stop before a node the kernel refuses to read,
    each followed by one that reaches it, which must raise and commit
    no counters; ``listed_first`` lists its skip list first (live)."""
    system = HybridMemorySystem()
    bad, good = SkipList(XorShiftRng(3)), SkipList(XorShiftRng(5))
    for i in range(40):
        bad.insert(key_of(i), i + 1, ("v", i), 30)
        good.insert(key_of(i), 100 + i, ("w", i), 20)
    # frame size 8 - 200 + overhead < 0, last in key order
    bad.insert(key_of(99), 100, ("v", 99), -200)
    view = MergedView()
    if listed_first:
        sources = [(bad, system.dram), (good, system.nvm)]
    else:
        sources = [(good, system.dram), (bad, system.nvm)]
    for i in range(60):
        pairs, __ = view.scan(system, key_of(i % 30), 3, sources)
        assert len(pairs) == 3
        before = device_counters(system)
        with pytest.raises(ValueError, match="negative read size"):
            view.scan(system, key_of(0), 100, sources)
        assert device_counters(system) == before
    return view


def test_a_negative_size_is_never_served(monkeypatch):
    """A node the kernel refuses to read keeps its member from being
    memoised: the view is never built, and the failed build is not
    retried while the members stand still."""
    builds = []
    build = MergedView._build
    monkeypatch.setattr(
        MergedView, "_build", lambda view: builds.append(1) or build(view)
    )
    assert scan_past_a_negative_size(listed_first=False).served == 0
    assert len(builds) <= 1


def test_a_negative_size_in_a_live_source_raises_beside_the_view():
    """The same node in the first source, merged live: the view serves
    the short scans and raises at the node like the kernel; a scan that
    raised is not counted as served (60 short scans return)."""
    assert 0 < scan_past_a_negative_size(listed_first=True).served <= 60


# ------------------------------------------------------------ stress


class StressLists:
    """Random overlapping skip lists for one stress example, each
    listed on a named device.

    Seqs come from two counters, one rising from ``BASE`` and one
    falling below it, so a version in any list may be newer or older
    than another list's version of its key; a *twin* copies some of
    another list's exact ``(key, seq)`` versions with values of its own.
    """

    BASE = 1 << 20

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.key_space = rng.randrange(8, 60)
        self.newer = self.older = self.BASE
        self.listing = []

    def seq(self, newest: bool) -> int:
        if newest:
            self.newer += 1
            return self.newer
        self.older -= 1
        return self.older

    def write(self, skiplist, newest: bool) -> None:
        rng = self.rng
        key = key_of(rng.randrange(self.key_space))
        seq = self.seq(newest)
        if rng.random() < 0.25:
            skiplist.insert(key, seq, TOMBSTONE, 0)
        else:
            skiplist.insert(key, seq, ("v", seq), rng.randrange(120))

    def new_list(self):
        rng = self.rng
        skiplist = SkipList(XorShiftRng(rng.randrange(1, 1 << 30)))
        for __ in range(rng.randrange(30)):
            self.write(skiplist, rng.random() < 0.5)
        twins = [sl for sl, __ in self.listing if len(sl)]
        if twins and rng.random() < 0.5:
            # exact (key, seq) ties with a listed source
            for node in rng.choice(twins).nodes():
                if rng.random() < 0.5:
                    skiplist.insert(node.key, node.seq, ("twin", node.seq), 33)
        return skiplist, rng.choice(("dram", "nvm"))


def stress_step(lists: StressLists) -> None:
    """One random change between scans, or none: a write to the first
    source, a source inserted after it, one dropped or listed on another
    device."""
    rng = lists.rng
    listing = lists.listing
    roll = rng.random()
    if roll < 0.3:
        lists.write(listing[0][0], rng.random() < 0.8)
    elif roll < 0.34:
        listing.insert(rng.randrange(1, len(listing) + 1), lists.new_list())
    elif roll < 0.37 and len(listing) > 1:
        del listing[rng.randrange(1, len(listing))]
    elif roll < 0.39:
        at = rng.randrange(len(listing))
        skiplist, device = listing[at]
        listing[at] = (skiplist, "nvm" if device == "dram" else "dram")


def stress_scan(lists: StressLists, view, systems, recorders) -> None:
    """One scan through the view and through the generator oracle, on
    twin systems."""
    view_system, oracle_system = systems
    rng = lists.rng
    start = key_of(rng.randrange(lists.key_space + 2))
    count = rng.choice((0, 1, 2, 3, 5, 8, 20, 100))
    got = view.scan(
        view_system, start, count,
        [(sl, getattr(view_system, device)) for sl, device in lists.listing],
    )
    cost = CostCell()
    streams = [
        skiplist_stream(oracle_system, sl, start, getattr(oracle_system, device), cost)
        for sl, device in lists.listing
    ]
    assert got == (old_merged_scan(streams, count), cost.seconds)
    assert device_counters(view_system) == device_counters(oracle_system)
    if recorders:
        assert transfers(recorders[0]) == transfers(recorders[1])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
)
def test_view_stress_matches_the_generator_oracle(seed, traced_from):
    """Random skip lists, then scans through one :class:`MergedView`
    checked against the generator oracle: pairs, seconds, device
    counters and transfer events.  Scans first with writes to the first
    source alone, until the view serves; then 70 more with sources
    inserted (some exact ``(key, seq)`` twins of a listed one), dropped
    and moved between devices; in some examples a recorder is attached
    partway (the view must stop serving)."""
    rng = random.Random(seed)
    lists = StressLists(rng)
    for __ in range(rng.randrange(2, 6)):
        lists.listing.append(lists.new_list())
    systems = (HybridMemorySystem(), HybridMemorySystem())
    view = MergedView()
    recorders = ()
    settle = 0
    while not view.served:
        # the members stand still: the view builds within entries / 9
        # scans of a positive count
        assert settle < 200, "the view never served"
        if rng.random() < 0.3:
            lists.write(lists.listing[0][0], True)
        stress_scan(lists, view, systems, recorders)
        settle += 1
    for step in range(70):
        if step == traced_from:
            recorders = tuple(system.attach_tracing() for system in systems)
            served_before = view.served
        stress_step(lists)
        stress_scan(lists, view, systems, recorders)
    if recorders:
        assert view.served == served_before
