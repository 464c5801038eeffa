"""Direct unit tests for MioDB's repository backends (lazy-copy targets)."""

from repro.core.pmtable import PMTable
from repro.core.repository import NvmRepository, SsdRepository, newest_versions
from repro.core.options import MioOptions
from repro.persist.arena import Arena
from repro.sim.rng import XorShiftRng
from repro.skiplist.node import TOMBSTONE
from repro.skiplist.skiplist import SkipList

KB = 1 << 10


def make_pmtable(system, entries):
    """A swizzled PMTable holding ``(key, seq, value)`` entries."""
    sl = SkipList(XorShiftRng(3))
    nbytes = 0
    for key, seq, value in entries:
        vb = 0 if value is TOMBSTONE else 32
        node, __ = sl.insert(key, seq, value, vb)
        nbytes += node.nbytes
    arena = Arena(system.nvm, max(nbytes, 1), "test-pmtable")
    table = PMTable(system, sl, [arena], bloom=None, level=0)
    table.swizzled = True
    return table


def test_newest_versions_dedups():
    sl = SkipList(XorShiftRng(1))
    sl.insert(b"a", 3, b"new", 3)
    sl.insert(b"a", 1, b"old", 3)
    sl.insert(b"b", 2, b"x", 1)
    assert [(n.key, n.seq) for n in newest_versions(sl)] == [(b"a", 3), (b"b", 2)]


def test_nvm_ingest_inserts_and_counts(system):
    repo = NvmRepository(system)
    table = make_pmtable(system, [(b"a", 1, b"va"), (b"b", 2, b"vb")])
    seconds, apply = repo.ingest(table)
    assert seconds > 0
    assert apply is None  # eager mutation
    assert repo.entry_count == 2
    value, __ = repo.get(b"a")
    assert value == b"va"
    assert repo.arena.size == repo.data_bytes


def test_nvm_ingest_in_place_update(system):
    repo = NvmRepository(system)
    repo.ingest(make_pmtable(system, [(b"k", 1, b"old")]))
    repo.ingest(make_pmtable(system, [(b"k", 5, b"new")]))
    assert repo.entry_count == 1
    value, __ = repo.get(b"k")
    assert value == b"new"


def test_nvm_ingest_ignores_stale_versions(system):
    """A later-ingested table can hold an older version (force-drain can
    reorder levels); the repository must keep the newer value."""
    repo = NvmRepository(system)
    repo.ingest(make_pmtable(system, [(b"k", 9, b"newest")]))
    repo.ingest(make_pmtable(system, [(b"k", 2, b"stale")]))
    value, __ = repo.get(b"k")
    assert value == b"newest"


def test_nvm_ingest_tombstone_deletes(system):
    repo = NvmRepository(system)
    repo.ingest(make_pmtable(system, [(b"k", 1, b"v")]))
    size_before = repo.arena.size
    repo.ingest(make_pmtable(system, [(b"k", 5, TOMBSTONE)]))
    assert repo.entry_count == 0
    value, __ = repo.get(b"k")
    assert value is None
    assert repo.arena.size < size_before


def test_nvm_ingest_tombstone_without_target_is_dropped(system):
    repo = NvmRepository(system)
    repo.ingest(make_pmtable(system, [(b"ghost", 4, TOMBSTONE)]))
    assert repo.entry_count == 0


def test_nvm_scan_streams(system):
    from repro.kvstore.scans import merged_scan

    repo = NvmRepository(system)
    repo.ingest(
        make_pmtable(system, [(b"a", 1, b"1"), (b"b", 2, b"2"), (b"c", 3, b"3")])
    )
    pairs, seconds = merged_scan(system, b"b", 10, repo.scan_sources(b"b"))
    assert pairs == [(b"b", b"2"), (b"c", b"3")]
    assert seconds > 0


def test_ssd_ingest_builds_tables_with_apply(ssd_system):
    options = MioOptions(memtable_bytes=4 * KB, sstable_bytes=4 * KB)
    repo = SsdRepository(ssd_system, options)
    table = make_pmtable(
        ssd_system, [(b"k%02d" % i, i + 1, b"v") for i in range(30)]
    )
    seconds, apply = repo.ingest(table)
    assert seconds > 0
    assert apply is not None
    assert repo.entry_count == 0  # not visible until apply
    apply()
    assert repo.entry_count == 30
    value, __ = repo.get(b"k05")
    assert value == b"v"
    assert ssd_system.ssd.bytes_written > 0


def test_ssd_ingest_charges_serialization(ssd_system):
    options = MioOptions(memtable_bytes=4 * KB, sstable_bytes=4 * KB)
    repo = SsdRepository(ssd_system, options)
    before = ssd_system.stats.get("serialize.time_s")
    seconds, apply = repo.ingest(
        make_pmtable(ssd_system, [(b"a", 1, b"v"), (b"b", 2, b"v")])
    )
    apply()
    assert ssd_system.stats.get("serialize.time_s") > before


def test_ssd_ingest_counts_each_table_serialization_once(ssd_system):
    options = MioOptions(memtable_bytes=4 * KB, sstable_bytes=1 * KB)
    repo = SsdRepository(ssd_system, options)
    seconds, apply = repo.ingest(
        make_pmtable(ssd_system, [(b"k%02d" % i, i + 1, b"v") for i in range(30)])
    )
    apply()
    built = repo.lsm.levels[0]
    assert len(built) >= 2
    assert ssd_system.stats.get("serialize.time_s") == sum(
        ssd_system.cpu.serialize_time(t.data_bytes) for t in built
    )
