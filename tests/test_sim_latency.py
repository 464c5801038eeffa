"""Unit tests for latency recording and percentile summaries."""

import math

import pytest

from repro.sim.latency import LatencyRecorder, equal_bins, percentile, window_slice


def test_percentile_empty():
    assert percentile([], 99) == 0.0


def test_percentile_nearest_rank():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(samples, 50) == 5.0
    assert percentile(samples, 90) == 9.0
    assert percentile(samples, 100) == 10.0
    assert percentile(samples, 10) == 1.0


def test_percentile_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summary_basic():
    rec = LatencyRecorder()
    for i in range(1, 101):
        rec.record("get", float(i), i * 1e-6)
    s = rec.summary("get")
    assert s.count == 100
    assert s.p90 == pytest.approx(90e-6)
    assert s.p99 == pytest.approx(99e-6)
    assert s.max == pytest.approx(100e-6)
    assert s.mean == pytest.approx(50.5e-6)


def test_summary_p999_catches_tail():
    rec = LatencyRecorder()
    for i in range(999):
        rec.record("put", float(i), 1e-6)
    rec.record("put", 1000.0, 1.0)  # one huge stall
    s = rec.summary("put")
    assert s.p999 == 1.0
    assert s.p90 == 1e-6


def test_summary_empty():
    s = LatencyRecorder().summary()
    assert s.count == 0
    assert s.mean == 0.0


def test_kinds_and_counts():
    rec = LatencyRecorder()
    rec.record("get", 0.0, 1e-6)
    rec.record("put", 0.0, 1e-6)
    rec.record("put", 0.1, 2e-6)
    assert rec.kinds() == ["get", "put"]
    assert rec.count("put") == 2
    assert rec.count() == 3


def test_pooled_summary_across_kinds():
    rec = LatencyRecorder()
    rec.record("get", 0.0, 1e-6)
    rec.record("put", 0.0, 3e-6)
    assert rec.summary().count == 2
    assert rec.summary().mean == pytest.approx(2e-6)


def test_as_micros():
    rec = LatencyRecorder()
    rec.record("get", 0.0, 15.7e-6)
    micros = rec.summary("get").as_micros()
    assert micros["avg"] == pytest.approx(15.7)


def test_merge_from():
    a = LatencyRecorder()
    b = LatencyRecorder()
    a.record("get", 0.0, 1e-6)
    b.record("get", 1.0, 2e-6)
    a.merge_from(b)
    assert a.count("get") == 2


def test_merge_returns_new_recorder_equal_to_pooled_samples():
    from repro.sim.rng import XorShiftRng

    rng = XorShiftRng(42)
    a = LatencyRecorder()
    b = LatencyRecorder()
    pooled = LatencyRecorder()
    for i in range(500):
        sample = (rng.next_below(1000) + 1) * 1e-7
        target = a if i % 3 else b
        target.record("response", i * 1e-4, sample)
        pooled.record("response", i * 1e-4, sample)
    merged = LatencyRecorder()
    merged.merge_from(a)
    merged.merge_from(b)
    # ``merge_from`` only reads its argument.
    assert a.count("response") + b.count("response") == 500
    got = merged.summary("response")
    want = pooled.summary("response")
    assert got.count == want.count == 500
    for attr in ("mean", "p50", "p90", "p99", "p999", "max"):
        assert getattr(got, attr) == getattr(want, attr), attr


def test_merge_keeps_kinds_separate():
    a = LatencyRecorder()
    b = LatencyRecorder()
    a.record("get", 0.0, 1e-6)
    b.record("put", 0.0, 2e-6)
    merged = LatencyRecorder()
    merged.merge_from(a)
    merged.merge_from(b)
    assert merged.kinds() == ["get", "put"]
    assert merged.count("get") == 1
    assert merged.count("put") == 1


def test_window_slice_is_open_on_the_left_and_closed_on_the_right():
    times = [0.25, 0.25, 0.5, 0.5, 0.75]
    assert window_slice(times, 0.5, 0.25) == (2, 4)
    assert window_slice(times, 0.75, 0.25) == (4, 5)
    assert window_slice(times, 0.5, math.inf) == (0, 4)  # cumulative
    assert window_slice([], 1.0, 0.5) == (0, 0)


def test_equal_bins_edges_and_zero_span():
    width, slots = equal_bins([0.0, 0.5, 0.999, 1.0], 0.0, 1.0, 4)
    assert width == 0.25
    assert slots == [0, 2, 3, 3]  # the top end lands in the last bin
    # Fig 8's single-instant series: no span, the tiny width, bin 0.
    width, slots = equal_bins([5.0, 5.0], 5.0, 5.0, 40)
    assert (width, slots) == (1e-12 / 40, [0, 0])
