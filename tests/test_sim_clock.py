"""Unit tests for the simulated clock."""

import pytest

from repro.sim.clock import SimClock


def test_starts_at_zero_by_default():
    assert SimClock().now == 0.0


def test_advance_moves_forward():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == 2.0


def test_advance_returns_new_time():
    clock = SimClock()
    clock.advance(1.0)
    assert clock.advance(2.0) == 3.0


def test_advance_by_zero_is_allowed():
    clock = SimClock()
    clock.advance(1.0)
    assert clock.advance(0.0) == 1.0


def test_advance_rejects_negative():
    clock = SimClock()
    for seconds in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            clock.advance(seconds)
    assert clock.now == 0.0


def test_advance_to_future():
    clock = SimClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0


def test_advance_to_past_is_noop():
    clock = SimClock()
    clock.advance(10.0)
    clock.advance_to(5.0)
    assert clock.now == 10.0


def test_advance_to_same_instant_is_noop():
    clock = SimClock()
    clock.advance(3.0)
    assert clock.advance_to(3.0) == 3.0


def test_repr_contains_time():
    clock = SimClock()
    clock.advance(1.5)
    assert "1.5" in repr(clock)
