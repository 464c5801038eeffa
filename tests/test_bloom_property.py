"""Property-based tests for bloom filter invariants."""

from hypothesis import given, strategies as st

from repro.bloom.filter import BloomFilter

key_lists = st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=50)


@given(key_lists)
def test_never_false_negative(keys):
    bloom = BloomFilter(4096, 5)
    bloom.add_all(keys)
    for key in keys:
        assert bloom.may_contain(key)


@given(key_lists, key_lists)
def test_merge_never_loses_membership(a_keys, b_keys):
    a = BloomFilter(4096, 5)
    b = BloomFilter(4096, 5)
    a.add_all(a_keys)
    b.add_all(b_keys)
    a.merge_from(b)
    for key in a_keys + b_keys:
        assert a.may_contain(key)


@given(key_lists, key_lists)
def test_merge_is_commutative_on_bits(a_keys, b_keys):
    a1, b1 = BloomFilter(2048, 4), BloomFilter(2048, 4)
    a2, b2 = BloomFilter(2048, 4), BloomFilter(2048, 4)
    a1.add_all(a_keys)
    b1.add_all(b_keys)
    a2.add_all(a_keys)
    b2.add_all(b_keys)
    a1.merge_from(b1)
    b2.merge_from(a2)
    assert a1.bits() == b2.bits()


@given(key_lists)
def test_saturation_monotone(keys):
    bloom = BloomFilter(2048, 4)
    last = 0.0
    for key in keys:
        bloom.add(key)
        sat = bloom.saturation
        assert sat >= last
        last = sat
    assert 0.0 <= last <= 1.0
