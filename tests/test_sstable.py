"""Unit tests for SSTables: building, reading, merging."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.mem.costs import CpuCostModel
from repro.mem.device import Device
from repro.mem.profiles import OPTANE_NVM_PROFILE
from repro.sim.clock import SimClock
from repro.skiplist.node import TOMBSTONE
from repro.sstable.merge import merge_entry_streams
from repro.sstable.table import SSTable, build_sstable, entry_frame_bytes, run_bytes


@pytest.fixture
def nvm():
    return Device(OPTANE_NVM_PROFILE, SimClock())


@pytest.fixture
def cpu():
    return CpuCostModel()


def entries_for(keys, start_seq=1, vbytes=100):
    return [(k, start_seq + i, b"v-" + k, vbytes) for i, k in enumerate(keys)]


def test_build_charges_serialize_and_write(nvm, cpu):
    entries = entries_for([b"a", b"b", b"c"])
    table, seconds = build_sstable(entries, nvm, cpu)
    assert seconds > 0
    assert nvm.bytes_written == table.data_bytes
    assert nvm.bytes_in_use == table.data_bytes


def test_empty_table_rejected(nvm):
    with pytest.raises(ValueError):
        SSTable([], nvm)


def test_unsorted_entries_rejected(nvm):
    with pytest.raises(ValueError):
        SSTable([(b"b", 1, b"v", 10), (b"a", 2, b"v", 10)], nvm)


def test_same_key_must_be_seq_descending(nvm):
    SSTable([(b"a", 5, b"v", 10), (b"a", 2, b"v", 10)], nvm)
    with pytest.raises(ValueError):
        SSTable([(b"a", 2, b"v", 10), (b"a", 5, b"v", 10)], nvm)


def test_get_hit_and_miss(nvm, cpu):
    table = SSTable(entries_for([b"a", b"c"]), nvm)
    entry, cost = table.get(b"a", cpu)
    assert entry[0] == b"a"
    assert cost > 0
    entry, cost = table.get(b"b", cpu)
    assert entry is None
    assert cost > 0  # a miss still reads a block


def test_get_returns_newest_version(nvm, cpu):
    table = SSTable([(b"a", 9, b"new", 10), (b"a", 1, b"old", 10)], nvm)
    entry, __ = table.get(b"a", cpu)
    assert entry[1] == 9


def test_min_max_and_overlap(nvm):
    table = SSTable(entries_for([b"c", b"f"]), nvm)
    assert table.min_key == b"c"
    assert table.max_key == b"f"
    assert table.overlaps(b"a", b"c")
    assert table.overlaps(b"d", b"e")
    assert not table.overlaps(b"g", b"z")
    assert not table.overlaps(b"a", b"b")


def test_release_frees_space_once(nvm):
    table = SSTable(entries_for([b"a"]), nvm)
    size = table.data_bytes
    assert table.release() == size
    assert table.release() == 0
    assert nvm.bytes_in_use == 0


def test_table_enters_usage_at_the_clocks_time(nvm):
    # Built at t=1 and held to t=2: the table occupied half the run.
    nvm.clock.advance(1.0)
    table = SSTable(entries_for([b"a", b"b"]), nvm)
    nvm.clock.advance(1.0)
    assert nvm.average_usage() == pytest.approx(table.data_bytes / 2)
    table.release()
    nvm.clock.advance(2.0)
    assert nvm.average_usage() == pytest.approx(table.data_bytes / 4)


def test_read_after_release_rejected(nvm, cpu):
    table = SSTable(entries_for([b"a"]), nvm)
    table.release()
    with pytest.raises(ValueError):
        table.get(b"a", cpu)
    with pytest.raises(ValueError):
        table.scan_all(cpu)


def test_scan_all_charges_sequential_read(nvm, cpu):
    table = SSTable(entries_for([b"a", b"b"]), nvm)
    before = nvm.bytes_read
    entries, seconds = table.scan_all(cpu)
    assert len(entries) == 2
    assert nvm.bytes_read - before == table.data_bytes
    assert seconds > 0


def test_entry_frame_bytes():
    assert entry_frame_bytes((b"abc", 1, b"v", 100)) == 3 + 100 + 24


def test_run_bytes_sums_entry_frames():
    run = [(b"k%d" % i * (i % 5), i, b"v", i * 37 % 300) for i in range(50)]
    assert run_bytes(run) == sum(map(entry_frame_bytes, run))
    assert run_bytes([]) == 0


# ------------------------------------------------------------------ merging


def test_merge_streams_dedups_by_newest():
    a = [(b"k", 5, b"new", 10)]
    b = [(b"k", 1, b"old", 10)]
    merged = list(merge_entry_streams([a, b]))
    assert merged == [(b"k", 5, b"new", 10)]


def test_merge_streams_drop_tombstones():
    a = [(b"k", 5, TOMBSTONE, 0)]
    b = [(b"k", 1, b"old", 10), (b"x", 2, b"keep", 10)]
    merged = merge_entry_streams([a, b], drop_tombstones=True)
    assert merged == [(b"x", 2, b"keep", 10)]


def test_merge_streams_global_order():
    a = entries_for([b"a", b"c", b"e"], start_seq=1)
    b = entries_for([b"b", b"d"], start_seq=10)
    merged = list(merge_entry_streams([a, b]))
    assert [e[0] for e in merged] == [b"a", b"b", b"c", b"d", b"e"]


def test_merge_tables(nvm):
    t1 = SSTable(entries_for([b"a", b"c"], start_seq=1), nvm)
    t2 = SSTable(entries_for([b"b", b"c"], start_seq=10), nvm)
    merged = list(merge_entry_streams([t1.entries, t2.entries]))
    keys = [e[0] for e in merged]
    assert keys == [b"a", b"b", b"c"]
    c_entry = merged[2]
    assert c_entry[1] >= 10  # t2's newer version of c wins


def reference_merge(streams, drop_tombstones):
    """The heapq.merge kernel the sort-based merge replaced."""
    keyed = [[((e[0], -e[1]), e) for e in stream] for stream in streams]
    out, last_key = [], None
    for __, entry in heapq.merge(*keyed):
        if entry[0] == last_key:
            continue
        last_key = entry[0]
        if drop_tombstones and entry[2] is TOMBSTONE:
            continue
        out.append(entry)
    return out


@st.composite
def entry_streams(draw):
    """1-5 sorted streams over a small shared key space, unique seqs."""
    writes = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from([b"a", b"b", b"c", b"d", b"e", b"f"]),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    nstreams = draw(st.integers(1, 5))
    seqs = draw(st.permutations(range(1, len(writes) + 1)))
    streams = [[] for __ in range(nstreams)]
    for (which, key, delete), seq in zip(writes, seqs):
        value = TOMBSTONE if delete else b"v%d" % seq
        streams[which % nstreams].append((key, seq, value, 0 if delete else seq))
    for stream in streams:
        stream.sort(key=lambda e: (e[0], -e[1]))
    return streams


@given(entry_streams(), st.booleans())
def test_merge_matches_heapq_reference(streams, drop_tombstones):
    merged = merge_entry_streams(streams, drop_tombstones)
    assert merged == reference_merge(streams, drop_tombstones)
    assert isinstance(merged, list)
