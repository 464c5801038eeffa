"""Tests for the monotone skip-list cursor (the sorted-run merge finger).

The from-head descent ``SkipList._find_predecessors`` is the oracle: a
cursor ``seek`` must return the same predecessor at every level and the
same hop count, whatever was linked or unlinked through the cursor on
the way.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import XorShiftRng
from repro.skiplist.node import MAX_HEIGHT
from repro.skiplist.skiplist import SkipList

keys = st.binary(min_size=1, max_size=3)


def build(pairs, seed=1):
    sl = SkipList(XorShiftRng(seed))
    for seq, key in enumerate(pairs, start=1):
        sl.insert(key, seq, ("v", seq), 8)
    return sl


def assert_same_search(cursor, sl, key, seq):
    preds, hops = cursor.seek(key, seq)
    want_preds, want_hops = sl._find_predecessors(key, seq)
    assert hops == want_hops
    assert len(preds) == len(want_preds) == MAX_HEIGHT
    assert all(a is b for a, b in zip(preds, want_preds))
    return preds, hops


# ------------------------------------------------------------------ oracle


@settings(max_examples=200)
@given(
    st.lists(keys, max_size=60),
    st.lists(
        st.tuples(
            keys,
            st.integers(min_value=0, max_value=200),
            st.sampled_from(["seek", "insert", "unlink"]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=60,
    ),
    st.integers(min_value=1, max_value=1 << 20),
)
def test_cursor_matches_from_head_descent(pairs, stream, seed):
    sl = build(pairs, seed)
    sl.frozen_index()
    # ascending in the list's own order: key asc, seq desc; no repeats
    targets = sorted({(k, s): (k, s, a, d) for k, s, a, d in stream}.values(),
                     key=lambda t: (t[0], -t[1]))
    cursor = sl.cursor()
    mutated = False
    for key, seq, action, drops in targets:
        preds, hops = assert_same_search(cursor, sl, key, seq)
        at = preds[0].next[0]
        if action == "insert" and not (at is not None and at.key == key and at.seq == seq):
            node, ins_hops = cursor.insert(key, seq, ("c", seq), 8)
            assert ins_hops == hops
            assert preds[0] is node
            mutated = True
            # following duplicates use the cursor's predecessors unchanged
            for __ in range(drops):
                dup = node.next[0]
                if dup is None or dup.key != key:
                    break
                assert cursor.unlink_next() is dup
        elif action == "unlink" and at is not None:
            assert cursor.unlink_next(to_garbage=False) is at
            mutated = True
    # the structure is still one sorted chain with consistent towers
    nodes = list(sl.nodes())
    assert [(n.key, -n.seq) for n in nodes] == sorted((n.key, -n.seq) for n in nodes)
    assert sl.entries == len(nodes)
    assert sl.data_bytes == sum(n.nbytes for n in nodes)
    for level in range(MAX_HEIGHT):
        chain = []
        node = sl.head.next[level]
        while node is not None:
            chain.append(node)
            node = node.next[level]
        assert chain == [n for n in nodes if n.height > level]
    if mutated:
        assert sl._index_version != sl._version


def test_far_apart_targets_match_too():
    sl = build([b"%04d" % i for i in range(0, 4000, 2)], seed=7)
    cursor = sl.cursor()
    for i in (1, 3, 1999, 2001, 3999, 5000):
        assert_same_search(cursor, sl, b"%04d" % i, 1 << 62)


def test_seek_same_target_twice_is_free():
    sl = build([b"a", b"c", b"e"])
    cursor = sl.cursor()
    first = cursor.seek(b"d", 9)
    assert cursor.seek(b"d", 9) == first


# ------------------------------------------------------------------ misuse


def test_backwards_target_is_a_typed_failure():
    sl = build([b"a", b"b", b"c", b"d"])
    cursor = sl.cursor()
    cursor.seek(b"d", 0)
    with pytest.raises(ValueError) as err:
        cursor.seek(b"b", 7)
    message = str(err.value)
    assert "backwards" in message
    assert repr(sl) in message
    assert "(b'b', 7)" in message


def test_older_seq_then_newer_seq_of_one_key_is_backwards():
    sl = build([b"k", b"k", b"k"])  # seqs 3, 2, 1
    cursor = sl.cursor()
    cursor.seek(b"k", 1)
    with pytest.raises(ValueError, match="backwards"):
        cursor.seek(b"k", 3)


def test_target_just_inserted_cannot_be_sought_again():
    sl = build([b"a"])
    cursor = sl.cursor()
    cursor.insert(b"b", 5, b"v", 1)
    with pytest.raises(ValueError, match="backwards"):
        cursor.seek(b"b", 5)


def test_foreign_mutation_is_a_typed_failure():
    sl = build([b"a", b"c"])
    cursor = sl.cursor()
    cursor.seek(b"b", 1)
    before = sl._version
    sl.insert(b"z", 99, b"v", 1)
    for call in (
        lambda: cursor.seek(b"c", 1),
        lambda: cursor.insert(b"d", 100, b"v", 1),
        lambda: cursor.unlink_next(),
    ):
        with pytest.raises(ValueError) as err:
            call()
        message = str(err.value)
        assert repr(sl) in message
        assert f"_version {before} -> {sl._version}" in message


def test_cursor_insert_rejects_duplicate_key_seq():
    sl = build([b"a", b"b"])  # (a, 1), (b, 2)
    cursor = sl.cursor()
    with pytest.raises(ValueError, match="duplicate"):
        cursor.insert(b"b", 2, b"again", 5)
    assert sl.entries == 2


def test_cursor_insert_draws_heights_like_insert():
    a = build([b"a", b"m", b"z"], seed=5)
    b = build([b"a", b"m", b"z"], seed=5)
    cursor = a.cursor()
    for i, key in enumerate((b"b", b"c", b"n", b"zz")):
        got, __ = cursor.insert(key, 10 + i, b"v", 1)
        want, __ = b.insert(key, 10 + i, b"v", 1)
        assert (got.height, got.nbytes) == (want.height, want.nbytes)
    assert a._tallest == b._tallest


def test_unlink_next_at_the_end_is_a_typed_failure():
    sl = build([b"a"])
    cursor = sl.cursor()
    cursor.seek(b"z", 0)
    with pytest.raises(ValueError, match="nothing to unlink"):
        cursor.unlink_next()


# ---------------------------------------------------------------- take_all


def test_take_all_empties_the_list_and_keeps_the_chain():
    sl = build([b"a", b"b", b"c"])
    sl.frozen_index()
    tallest = sl._tallest
    first = sl.take_all()
    chain = []
    while first is not None:
        chain.append(first.key)
        first = first.next[0]
    assert chain == [b"a", b"b", b"c"]
    assert sl.is_empty and sl.entries == 0 and sl.data_bytes == 0
    assert all(nxt is None for nxt in sl.head.next)
    assert sl._tallest == tallest  # stale-high, as after per-node unlinks
    assert sl._index_version != sl._version
    assert sl.take_all() is None
