"""Unit tests for the multi-version skip list."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import XorShiftRng
from repro.skiplist.merge import ZeroCopyMerge
from repro.skiplist.node import (
    BRANCHING,
    MAX_HEIGHT,
    NODE_OVERHEAD_BYTES,
    TOMBSTONE,
    Node,
)
from repro.skiplist.skiplist import SkipList
from tests.support.oracles import live_items
from tests.test_merge_kernel_oracle import towers


@pytest.fixture
def sl():
    return SkipList(XorShiftRng(1))


def put(sl, key, seq, value=b"v", vbytes=10):
    node, hops = sl.insert(key, seq, value, vbytes)
    return node


def test_empty_list(sl):
    assert sl.is_empty
    assert len(sl) == 0
    assert sl.get(b"a") == (None, 0)


def test_insert_and_get(sl):
    put(sl, b"a", 1)
    node, hops = sl.get(b"a")
    assert node.key == b"a"
    assert node.seq == 1
    assert hops >= 0


def test_get_missing_key(sl):
    put(sl, b"a", 1)
    put(sl, b"c", 2)
    node, __ = sl.get(b"b")
    assert node is None


def test_versions_newest_first(sl):
    put(sl, b"k", 1, value=b"old")
    put(sl, b"k", 5, value=b"new")
    put(sl, b"k", 3, value=b"mid")
    node, __ = sl.get(b"k")
    assert node.seq == 5
    versions = [n.seq for n in sl.nodes()]
    assert versions == [5, 3, 1]


def test_snapshot_get(sl):
    put(sl, b"k", 1, value=b"old")
    put(sl, b"k", 5, value=b"new")
    node, __ = sl.get(b"k", max_seq=3)
    assert node.seq == 1


def test_duplicate_key_seq_rejected(sl):
    put(sl, b"k", 1)
    with pytest.raises(ValueError):
        put(sl, b"k", 1)


def test_nodes_in_key_order(sl):
    for i, key in enumerate([b"d", b"a", b"c", b"b"]):
        put(sl, key, i + 1)
    assert [n.key for n in sl.nodes()] == [b"a", b"b", b"c", b"d"]


def test_items_newest_live_versions_only(sl):
    put(sl, b"a", 1, value=b"a1")
    put(sl, b"a", 2, value=b"a2")
    put(sl, b"b", 3, value=TOMBSTONE, vbytes=0)
    put(sl, b"c", 4, value=b"c1")
    assert list(live_items(sl)) == [(b"a", b"a2"), (b"c", b"c1")]
    assert (b"b", TOMBSTONE) in [(n.key, n.value) for n in sl.nodes()]


def test_first_ge(sl):
    put(sl, b"b", 1)
    put(sl, b"d", 2)
    node, __ = sl.first_ge(b"c")
    assert node.key == b"d"
    node, __ = sl.first_ge(b"b")
    assert node.key == b"b"
    node, __ = sl.first_ge(b"e")
    assert node is None


def assert_seek_is_first_ge(sl, paths):
    """seek == first_ge for every probe: same node object, same hops."""
    for i in range(0, 64):
        probe = b"k%02d" % i
        # peek at which path the seek is about to take
        paths.add("index" if sl._index_version == sl._version else "walk")
        node, hops = sl.seek(probe)
        expected, expected_hops = sl.first_ge(probe)
        assert node is expected
        assert hops == expected_hops


def test_seek_matches_first_ge_across_mutations(sl):
    paths = set()
    assert sl.seek(b"a") == (None, 0)
    nodes = [put(sl, b"k%02d" % i, i + 1) for i in range(1, 60, 2)]
    assert_seek_is_first_ge(sl, paths)
    # newer versions of existing keys: seek lands on the newest
    put(sl, b"k07", 100)
    put(sl, b"k31", 101)
    assert_seek_is_first_ge(sl, paths)
    assert sl.seek(b"k07")[0].seq == 100
    for victim in nodes[::3]:
        sl.unlink(victim, sl.predecessors_of(victim))
        assert_seek_is_first_ge(sl, paths)
    # a zero-copy merge relinks nodes step by step under a built index
    new = SkipList(XorShiftRng(2))
    for i in range(0, 60, 4):
        put(new, b"k%02d" % i, 200 + i)
    assert sl.frozen_index() is not None and new.frozen_index() is not None
    merge = ZeroCopyMerge(new, sl)
    while merge.step():
        # stale after every step: seeks walk until the index is rebuilt
        assert sl.frozen_index() is None
        assert_seek_is_first_ge(sl, paths)
        assert_seek_is_first_ge(new, paths)
    assert_seek_is_first_ge(sl, paths)
    assert paths == {"index", "walk"}


def test_rebuilds_back_off_on_a_big_list_written_between_reads(sl):
    """A rebuild walks every entry, so one that serves 20 lookups before
    the next write invalidates it does not pay on a 20 000-entry list:
    the rebuilds back off instead of costing a walk per write."""
    n = 20_000
    for i in range(n):
        put(sl, b"k%06d" % (i * 7919 % n), i + 1)
    rng = XorShiftRng(5)
    rebuilds = 0
    index = None
    for rnd in range(100):
        put(sl, b"k%06d" % rng.next_below(n), n + 1 + rnd)
        for __ in range(20):
            # half the probes carry an "x" suffix: keys that are absent
            key = b"k%06d%s" % (rng.next_below(n), b"x" * rng.next_below(2))
            assert sl.lookup(key) == sl.get(key)
            if sl._index is not index:
                rebuilds += 1
                index = sl._index
    assert 1 <= rebuilds <= 10


def test_data_bytes_accounting(sl):
    node = put(sl, b"abc", 1, vbytes=100)
    assert sl.data_bytes == node.nbytes
    assert node.nbytes == 3 + 100 + 64  # key + value + overhead


def test_unlink_moves_bytes_to_garbage(sl):
    node = put(sl, b"a", 1)
    preds = sl.predecessors_of(node)
    sl.unlink(node, preds)
    assert sl.is_empty
    assert sl.data_bytes == 0
    assert sl.garbage_bytes == node.nbytes
    assert sl.footprint_bytes == node.nbytes


def test_unlink_without_garbage(sl):
    node = put(sl, b"a", 1)
    sl.unlink(node, sl.predecessors_of(node), to_garbage=False)
    assert sl.garbage_bytes == 0


def test_unlink_with_stale_preds_rejected(sl):
    a = put(sl, b"a", 1)
    put(sl, b"b", 2)
    bad_preds = [sl.head] * MAX_HEIGHT
    sl.unlink(a, sl.predecessors_of(a))
    with pytest.raises(ValueError):
        sl.unlink(a, bad_preds)


def test_predecessors_of_unlinked_node_rejected(sl):
    a = put(sl, b"a", 1)
    sl.unlink(a, sl.predecessors_of(a))
    with pytest.raises(ValueError):
        sl.predecessors_of(a)


def test_update_in_place(sl):
    node = put(sl, b"a", 1, value=b"old", vbytes=10)
    delta = sl.update_in_place(node, 5, b"new", 30)
    assert delta == 20
    assert node.seq == 5
    assert node.value == b"new"
    assert sl.data_bytes == node.nbytes


def test_update_in_place_rejects_multiversion(sl):
    put(sl, b"a", 2)
    node, __ = sl.get(b"a")
    put(sl, b"a", 1)
    newest, __ = sl.get(b"a")
    with pytest.raises(ValueError):
        sl.update_in_place(newest, 9, b"x", 1)


def test_update_in_place_rejects_seq_regression(sl):
    node = put(sl, b"a", 5)
    with pytest.raises(ValueError):
        sl.update_in_place(node, 4, b"x", 1)


def test_tower_height_distribution():
    rng = XorShiftRng(7)
    heights = [rng.tower_height(BRANCHING, MAX_HEIGHT) for _ in range(4000)]
    assert min(heights) == 1
    assert max(heights) <= MAX_HEIGHT
    ones = sum(1 for h in heights if h == 1)
    assert 0.65 < ones / len(heights) < 0.85  # P(h=1) = 3/4


# ----------------------------------- fused kernels vs their step-wise oracle


def reference_height(rng, branching=BRANCHING, cap=MAX_HEIGHT):
    """One ``next_below`` draw at a time: the loop ``tower_height`` inlines."""
    height = 1
    while height < cap and rng.next_below(branching) == 0:
        height += 1
    return height


def reference_insert(sl, key, seq, value, value_bytes):
    """``SkipList.insert`` as separate steps: descend, reject, draw, splice."""
    preds, hops = sl._find_predecessors(key, seq)
    at = preds[0].next[0]
    if at is not None and at.key == key and at.seq == seq:
        raise ValueError(f"duplicate (key, seq): ({key!r}, {seq})")
    nbytes = len(key) + value_bytes + NODE_OVERHEAD_BYTES
    node = Node(key, seq, value, nbytes, reference_height(sl._rng))
    sl._splice_in(node, preds)
    return node, hops


@pytest.mark.parametrize("branching, cap", [(BRANCHING, MAX_HEIGHT), (2, 5), (4, 1)])
def test_tower_height_is_the_next_below_loop(branching, cap):
    for seed in range(300):
        fused, ref = XorShiftRng(seed), XorShiftRng(seed)
        for __ in range(20):
            assert fused.tower_height(branching, cap) == reference_height(ref, branching, cap)
            assert fused._state == ref._state


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=2), st.integers(1, 30),
                  st.integers(0, 300)),
        max_size=80,
    ),
    st.integers(1, 1 << 32),
)
def test_insert_matches_stepwise_oracle(ops, seed):
    fused, ref = SkipList(XorShiftRng(seed)), SkipList(XorShiftRng(seed))
    for key, seq, value_bytes in ops:
        try:
            want = reference_insert(ref, key, seq, ("v", seq), value_bytes)
        except ValueError:
            # a rejected duplicate consumes no randomness on either side
            with pytest.raises(ValueError, match="duplicate"):
                fused.insert(key, seq, ("v", seq), value_bytes)
        else:
            node, hops = fused.insert(key, seq, ("v", seq), value_bytes)
            assert (node.key, node.seq, node.nbytes, node.height, hops) == (
                want[0].key, want[0].seq, want[0].nbytes, want[0].height, want[1]
            )
        assert fused._rng._state == ref._rng._state
        assert towers(fused) == towers(ref)
        assert (fused.entries, fused.data_bytes, fused._tallest, fused._version) == (
            ref.entries, ref.data_bytes, ref._tallest, ref._version
        )


def test_node_height_bounds():
    with pytest.raises(ValueError):
        Node(b"k", 1, b"v", 10, 0)
    with pytest.raises(ValueError):
        Node(b"k", 1, b"v", 10, MAX_HEIGHT + 1)


def test_precedes_ordering():
    a1 = Node(b"a", 1, b"v", 10, 1)
    assert a1.precedes(b"b", 0)
    assert not a1.precedes(b"a", 5)  # seq 1 sorts after seq 5
    assert a1.precedes(b"a", 0)


def test_large_insert_lookup_roundtrip(sl):
    keys = [b"k%04d" % i for i in range(500)]
    rng = XorShiftRng(13)
    order = list(range(500))
    rng.shuffle(order)
    for seq, idx in enumerate(order, start=1):
        put(sl, keys[idx], seq)
    assert len(sl) == 500
    for key in keys:
        node, __ = sl.get(key)
        assert node is not None and node.key == key
    assert [n.key for n in sl.nodes()] == sorted(keys)
