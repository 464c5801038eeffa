"""Unit and property tests for the deterministic RNG."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import XorShiftRng


def test_same_seed_same_stream():
    a = XorShiftRng(42)
    b = XorShiftRng(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    a = XorShiftRng(1)
    b = XorShiftRng(2)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


def test_zero_seed_is_remapped():
    rng = XorShiftRng(0)
    assert rng.next_u64() != 0


def test_float_in_unit_interval():
    rng = XorShiftRng(7)
    for _ in range(1000):
        x = rng.next_float()
        assert 0.0 <= x < 1.0


def test_next_below_in_range():
    rng = XorShiftRng(9)
    for _ in range(1000):
        assert 0 <= rng.next_below(17) < 17


def test_next_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        XorShiftRng(1).next_below(0)


def test_shuffle_is_permutation():
    rng = XorShiftRng(3)
    items = list(range(100))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


@pytest.mark.parametrize("n", [0, 1, 1025])
def test_floats_equals_repeated_next_float(n):
    batched, single = XorShiftRng(13), XorShiftRng(13)
    assert batched.floats(n) == [single.next_float() for _ in range(n)]
    assert batched.next_u64() == single.next_u64()


def test_fork_produces_independent_stream():
    rng = XorShiftRng(5)
    child = rng.fork()
    parent_vals = [rng.next_u64() for _ in range(5)]
    child_vals = [child.next_u64() for _ in range(5)]
    assert parent_vals != child_vals


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_stays_in_64_bits(seed):
    rng = XorShiftRng(seed)
    for _ in range(20):
        assert 0 <= rng.next_u64() < 2**64


@given(st.integers(min_value=1, max_value=2**32), st.integers(min_value=1, max_value=1000))
def test_next_below_bound_property(seed, bound):
    rng = XorShiftRng(seed)
    assert 0 <= rng.next_below(bound) < bound


def test_uniformity_rough():
    rng = XorShiftRng(11)
    buckets = [0] * 10
    n = 20000
    for _ in range(n):
        buckets[rng.next_below(10)] += 1
    for count in buckets:
        assert abs(count - n / 10) < n / 10 * 0.2


@pytest.mark.parametrize("branching", [3, 6, 0, -4])
def test_tower_height_refuses_a_branching_that_is_not_a_power_of_two(branching):
    rng = XorShiftRng(9)
    state = rng._state
    with pytest.raises(ValueError, match="power of two"):
        rng.tower_height(branching, 12)
    assert rng._state == state
