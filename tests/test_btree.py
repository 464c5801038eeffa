"""Unit and property tests for the B+-tree substrate."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.btree.tree import BPlusTree
from tests.support.oracles import check_invariants, range_from


def test_empty_tree():
    tree = BPlusTree()
    assert len(tree) == 0
    value, visits = tree.get(b"a")
    assert value is None
    assert visits >= 1


def test_order_validation():
    with pytest.raises(ValueError):
        BPlusTree(order=3)


def test_insert_and_get():
    tree = BPlusTree(order=4)
    tree.insert(b"b", 2)
    tree.insert(b"a", 1)
    tree.insert(b"c", 3)
    for key, expected in [(b"a", 1), (b"b", 2), (b"c", 3)]:
        value, __ = tree.get(key)
        assert value == expected
    assert len(tree) == 3


def test_insert_overwrites():
    tree = BPlusTree(order=4)
    tree.insert(b"k", "old")
    tree.insert(b"k", "new")
    assert len(tree) == 1
    value, __ = tree.get(b"k")
    assert value == "new"


def test_splits_maintain_order():
    tree = BPlusTree(order=4)
    keys = [b"k%03d" % i for i in range(200)]
    import random

    random.Random(7).shuffle(keys)
    for i, key in enumerate(keys):
        tree.insert(key, i)
    assert tree.height > 1
    assert [k for k, __ in range_from(tree, b"")] == sorted(keys)
    check_invariants(tree)


def test_insert_reports_visits_and_writes():
    tree = BPlusTree(order=4)
    visits, writes = tree.insert(b"a", 1)
    assert visits >= 1
    assert writes >= 1
    # fill until a split happens: writes spike above 1
    saw_split = False
    for i in range(50):
        __, writes = tree.insert(b"k%02d" % i, i)
        if writes > 1:
            saw_split = True
    assert saw_split


def test_visits_grow_with_height():
    small = BPlusTree(order=4)
    small.insert(b"a", 1)
    __, shallow_visits = small.get(b"a")
    big = BPlusTree(order=4)
    for i in range(500):
        big.insert(b"k%04d" % i, i)
    __, deep_visits = big.get(b"k0250")
    assert deep_visits > shallow_visits


def test_delete():
    tree = BPlusTree(order=4)
    for i in range(40):
        tree.insert(b"k%02d" % i, i)
    removed, __ = tree.delete(b"k05")
    assert removed
    assert len(tree) == 39
    value, __ = tree.get(b"k05")
    assert value is None
    removed, __ = tree.delete(b"absent")
    assert not removed


def test_range_from_middle():
    tree = BPlusTree(order=4)
    for i in range(50):
        tree.insert(b"k%02d" % i, i)
    window = list(range_from(tree, b"k45"))
    assert [k for k, __ in window] == [b"k%02d" % i for i in range(45, 50)]


keys_values = st.lists(
    st.tuples(st.binary(min_size=1, max_size=8), st.integers()),
    max_size=150,
)


@settings(max_examples=50)
@given(keys_values)
def test_matches_dict_model(pairs):
    tree = BPlusTree(order=4)
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    assert len(tree) == len(model)
    for key, value in model.items():
        got, __ = tree.get(key)
        assert got == value
    assert [k for k, __ in range_from(tree, b"")] == sorted(model)
    check_invariants(tree)


@settings(max_examples=30)
@given(keys_values, st.sets(st.binary(min_size=1, max_size=8)))
def test_delete_matches_dict_model(pairs, to_delete):
    tree = BPlusTree(order=4)
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    for key in to_delete:
        removed, __ = tree.delete(key)
        assert removed == (key in model)
        model.pop(key, None)
    for key, value in model.items():
        got, __ = tree.get(key)
        assert got == value
    assert [k for k, __ in range_from(tree, b"")] == sorted(model)


def get_then_insert(tree, key, locator):
    """SLM-DB's update before it was fused: a get, then an insert unless
    the present locator is newer.  Returns (get visits, insert visits,
    writes); the insert's visits are None when it is skipped."""
    current, get_visits = tree.get(key)
    if current is not None and current[1] > locator[1]:
        return get_visits, None, 0
    visits, writes = tree.insert(key, locator)
    return get_visits, visits, writes


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(0, 120), st.integers(0, 400)),
        min_size=1,
        max_size=300,
    )
)
@example([((i * 37) % 120, (i * 53) % 400) for i in range(300)])
def test_keep_newer_insert_matches_get_then_insert(ops):
    fused, oracle = BPlusTree(order=4), BPlusTree(order=4)
    for key_no, seq in ops:
        key = b"k%03d" % key_no
        height = fused.height
        visits, writes = fused.insert(key, ("sst", seq), keep_newer=True)
        get_visits, insert_visits, oracle_writes = get_then_insert(
            oracle, key, ("sst", seq)
        )
        assert visits == get_visits == height
        assert insert_visits in (None, visits)
        assert writes == oracle_writes
        assert (fused.node_count, fused.height) == (oracle.node_count, oracle.height)
        check_invariants(fused)
    assert list(range_from(fused, b"")) == list(range_from(oracle, b""))


def test_keep_newer_insert_example_splits_the_root_twice():
    tree = BPlusTree(order=4)
    for i in range(300):
        tree.insert(b"k%03d" % ((i * 37) % 120), ("sst", (i * 53) % 400), True)
    assert tree.height >= 3
