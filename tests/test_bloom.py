"""Unit tests for mergeable bloom filters."""

import pytest

from repro.bloom.filter import BloomFilter
from repro.bloom.hashing import fnv1a_64, probe_positions


def test_no_false_negatives():
    bloom = BloomFilter.for_capacity(200, bits_per_key=16)
    keys = [b"key-%d" % i for i in range(200)]
    bloom.add_all(keys)
    for key in keys:
        assert bloom.may_contain(key)


def test_absent_keys_mostly_rejected():
    bloom = BloomFilter.for_capacity(200, bits_per_key=16)
    bloom.add_all(b"key-%d" % i for i in range(200))
    false_pos = sum(
        1 for i in range(1000) if bloom.may_contain(b"absent-%d" % i)
    )
    assert false_pos < 30  # 16 bits/key => fp well under 1%, allow slack


def test_empty_filter_rejects_everything():
    bloom = BloomFilter(1024, 4)
    assert not bloom.may_contain(b"anything")
    assert bloom.saturation == 0.0


def test_merge_is_union():
    a = BloomFilter(2048, 5)
    b = BloomFilter(2048, 5)
    a.add(b"only-a")
    b.add(b"only-b")
    a.merge_from(b)
    assert a.may_contain(b"only-a")
    assert a.may_contain(b"only-b")
    assert a.added == 2


def test_merge_requires_same_geometry():
    a = BloomFilter(1024, 4)
    b = BloomFilter(2048, 4)
    with pytest.raises(ValueError):
        a.merge_from(b)
    c = BloomFilter(1024, 5)
    with pytest.raises(ValueError):
        a.merge_from(c)


def test_merge_degrades_fp_rate():
    """The Figure 9 effect: merged (bigger) tables saturate the filter."""
    base = BloomFilter.for_capacity(100, bits_per_key=16)
    base.add_all(b"a-%d" % i for i in range(100))
    fp_before = base.false_positive_rate()
    for gen in range(8):
        other = BloomFilter(base.nbits, base.k)
        other.add_all(b"g%d-%d" % (gen, i) for i in range(100))
        base.merge_from(other)
    assert base.false_positive_rate() > fp_before


def test_for_capacity_rejects_bad_input():
    with pytest.raises(ValueError):
        BloomFilter.for_capacity(0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BloomFilter(0, 1)
    with pytest.raises(ValueError):
        BloomFilter(8, 0)


def test_nbytes():
    assert BloomFilter(1024, 4).nbytes == 128


def test_fnv_hash_deterministic_and_seeded():
    # The published FNV-1a vector; the probe pair's seeds are pinned in
    # test_bloom_lazy.py.
    assert fnv1a_64(b"hello") == 0xA430D84680AABD0B


def test_double_hashes_positions_in_range():
    positions = probe_positions(b"key", 7, 100)
    assert len(positions) == 7
    assert all(0 <= p < 100 for p in positions)


def test_double_hashes_rejects_bad_nbits():
    with pytest.raises(ValueError):
        probe_positions(b"k", 3, 0)
