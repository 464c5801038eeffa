"""Property-based tests (hypothesis) for skip-list invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim.rng import XorShiftRng
from repro.skiplist.merge import ZeroCopyMerge
from repro.skiplist.skiplist import SkipList
from tests.support.oracles import live_items

keys = st.binary(min_size=1, max_size=6)
ops = st.lists(st.tuples(keys, st.binary(max_size=4)), max_size=80)


def build(pairs, seed=1, start_seq=1):
    sl = SkipList(XorShiftRng(seed))
    seq = start_seq
    for key, value in pairs:
        sl.insert(key, seq, value, len(value))
        seq += 1
    return sl, seq


def is_sorted(sl):
    nodes = list(sl.nodes())
    for a, b in zip(nodes, nodes[1:]):
        if a.key > b.key:
            return False
        if a.key == b.key and a.seq <= b.seq:
            return False
    return True


@given(ops)
def test_insert_keeps_order_invariant(pairs):
    sl, __ = build(pairs)
    assert is_sorted(sl)
    assert len(sl) == len(pairs)


@given(ops)
def test_get_returns_latest_write(pairs):
    sl, __ = build(pairs)
    model = {}
    for key, value in pairs:
        model[key] = value
    for key, value in model.items():
        node, __ = sl.get(key)
        assert node is not None
        assert node.value == value


@given(ops)
def test_items_match_dict_model(pairs):
    sl, __ = build(pairs)
    model = {}
    for key, value in pairs:
        model[key] = value
    assert dict(live_items(sl)) == model


@settings(max_examples=60)
@given(ops, ops)
def test_zero_copy_merge_equals_dict_union(old_pairs, new_pairs):
    """Merging two tables must equal applying old writes then new ones."""
    old, next_seq = build(old_pairs, seed=1)
    new, __ = build(new_pairs, seed=2, start_seq=next_seq)
    merge = ZeroCopyMerge(new, old).run()
    model = {}
    for key, value in old_pairs:
        model[key] = value
    for key, value in new_pairs:
        model[key] = value
    assert dict(live_items(old)) == model
    assert is_sorted(old)
    assert new.is_empty
    # every key the newtable touched is fully deduplicated (the merge
    # drops versions shadowed by a migrating node; purely-old keys keep
    # their internal versions until lazy-copy compaction)
    touched = {key for key, __ in new_pairs}
    counts = {}
    for node in old.nodes():
        counts[node.key] = counts.get(node.key, 0) + 1
    for key in touched:
        assert counts.get(key, 0) == 1


@settings(max_examples=40)
@given(ops, ops, st.integers(min_value=0, max_value=200))
def test_mid_merge_queries_never_lose_data(old_pairs, new_pairs, steps):
    old, next_seq = build(old_pairs, seed=3)
    new, __ = build(new_pairs, seed=4, start_seq=next_seq)
    model = {}
    for key, value in old_pairs:
        model[key] = value
    for key, value in new_pairs:
        model[key] = value
    merge = ZeroCopyMerge(new, old)
    for __step in range(steps):
        if not merge.step():
            break
        for key, value in model.items():
            node, __ = merge.get(key)
            assert node is not None
            assert node.value == value


@settings(max_examples=40)
@given(ops)
def test_bytes_accounting_is_conserved(pairs):
    sl, __ = build(pairs)
    total = sl.data_bytes
    # unlink everything; data should flow to garbage, not vanish
    while not sl.is_empty:
        node = sl.head.next[0]
        sl.unlink(node, sl.predecessors_of(node))
    assert sl.data_bytes == 0
    assert sl.garbage_bytes == total
