"""Tests for SLO objectives, burn-rate alerting, and rolling series."""

import pytest

from repro.obs import run_traced
from repro.obs.analyze import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    attribute_ops,
    rolling_series,
)

pytestmark = pytest.mark.obs_smoke


def test_objective_and_rule_validation():
    for threshold_s in (0.0, float("nan")):
        with pytest.raises(ValueError, match="threshold_s"):
            SloObjective("x", threshold_s=threshold_s)
    with pytest.raises(ValueError):
        SloObjective("x", threshold_s=1e-6, target=1.0)
    with pytest.raises(ValueError):
        SloObjective("x", threshold_s=1e-6, target=0.0)
    with pytest.raises(ValueError):
        BurnRateRule(short_s=2.0, long_s=1.0, factor=1.0)
    with pytest.raises(ValueError):
        BurnRateRule(short_s=0.0, long_s=1.0, factor=1.0)
    for factor in (0.0, float("nan")):
        with pytest.raises(ValueError, match="factor"):
            BurnRateRule(short_s=1.0, long_s=1.0, factor=factor)
    with pytest.raises(ValueError):
        SloMonitor(SloObjective("x", 1e-6), [])
    assert SloObjective("x", 1e-6, target=0.99).error_budget == pytest.approx(0.01)


def test_monitor_fires_and_resolves_on_a_synthetic_burst():
    # 100 good samples, a burst of 10 bad, then 100 good again; the
    # 10-sample short window must fire during the burst and resolve.
    objective = SloObjective("lat", threshold_s=1e-3, target=0.9)
    rule = BurnRateRule(short_s=0.010, long_s=0.050, factor=1.0)
    samples = []
    t = 0.0
    for i in range(210):
        t += 0.001
        bad = 100 <= i < 110
        samples.append((t, 2e-3 if bad else 1e-4))
    report = SloMonitor(objective, [rule]).run(samples)
    states = [a["state"] for a in report["alerts"]]
    assert states == ["fire", "resolve"]
    fire, resolve = report["alerts"]
    assert fire["t_s"] < resolve["t_s"]
    assert fire["burn_short"] >= 1.0 and fire["burn_long"] >= 1.0
    assert report["bad"] == 10
    assert report["compliance"] == pytest.approx(200 / 210)
    assert report["firing_at_end"] == []


def test_short_spike_does_not_fire_the_long_window():
    # One bad sample in a sea of good ones: the short window burns hot
    # but the long window stays under the factor, so nothing fires.
    objective = SloObjective("lat", threshold_s=1e-3, target=0.9)
    rule = BurnRateRule(short_s=0.002, long_s=0.200, factor=1.0)
    samples = [(0.001 * (i + 1), 1e-4) for i in range(200)]
    samples[50] = (samples[50][0], 5e-3)
    report = SloMonitor(objective, [rule]).run(samples)
    assert report["alerts"] == []
    assert report["bad"] == 1


def test_empty_sample_stream():
    objective = SloObjective("lat", threshold_s=1e-3)
    report = SloMonitor(objective, [BurnRateRule(1.0, 1.0, 1.0)]).run([])
    assert report["samples"] == 0
    assert report["compliance"] is None
    assert report["alerts"] == []


def test_alert_log_is_deterministic_on_a_traced_run():
    reports = []
    for __ in range(2):
        __s, system, recorder = run_traced(
            "miodb", n=512, value_size=1024, reads=64
        )
        samples = [(a.end, a.measured_s) for a in attribute_ops(recorder)]
        objective = SloObjective("op-latency", threshold_s=5e-6)
        end_s = system.clock.now
        monitor = SloMonitor(
            objective, [BurnRateRule(end_s / 50, end_s / 10, 2.0)]
        )
        reports.append((monitor.run(samples), rolling_series(samples, end_s, end_s / 10)))
    assert reports[0] == reports[1]
    # The capped-buffer miodb trace stalls hard enough to breach 5us.
    assert reports[0][0]["alerts"]


def test_rolling_series_empty_windows_report_none():
    series = rolling_series([], end_s=1.0, window_s=0.1)
    assert len(series["rows"]) == 21
    assert all(row["p99_us"] is None for row in series["rows"])
    assert all(row["count"] == 0 for row in series["rows"])
    assert series["throughput_breaches"] == []
    # Windows that hold no sample report None, not a zero latency,
    # even once samples exist elsewhere on the grid.
    series = rolling_series([(0.95, 3e-6)], end_s=1.0, window_s=0.1)
    assert [row["p99_us"] for row in series["rows"][:19]] == [None] * 19


def test_rolling_series_counts_and_percentiles():
    samples = [(0.01 * (i + 1), 1e-4 * (i + 1)) for i in range(100)]
    series = rolling_series(samples, end_s=1.0, window_s=0.25)
    by_t = {row["t_s"]: row for row in series["rows"]}
    assert by_t[0.0]["count"] == 0
    assert by_t[0.5]["count"] == 25  # samples in (0.25, 0.5]
    assert by_t[1.0]["count"] == 25
    assert by_t[1.0]["p99_us"] == pytest.approx(1e-4 * 100 * 1e6)  # nearest rank of 25
    # A one-sample window reports that sample.
    series = rolling_series([(0.95, 3e-6)], end_s=1.0, window_s=0.1)
    assert series["rows"][-1]["count"] == 1
    assert series["rows"][-1]["p99_us"] == pytest.approx(3.0)


def test_rolling_series_flags_throughput_breaches():
    samples = [(0.01 * (i + 1), 1e-4) for i in range(50)]  # stop at 0.5s
    series = rolling_series(samples, end_s=1.0, window_s=0.25, min_kiops=0.05)
    # After the load stops the windows empty out and undershoot the floor.
    assert any(b["t_s"] >= 0.75 for b in series["throughput_breaches"])
    # Leading edge before the first sample is not counted as a breach.
    assert all(b["t_s"] > 0.0 for b in series["throughput_breaches"])


def test_rolling_series_validation():
    for window_s in (0.0, float("nan")):
        with pytest.raises(ValueError, match="window_s"):
            rolling_series([], end_s=1.0, window_s=window_s)


def test_a_burn_rate_equal_to_the_factor_does_not_fire():
    # Target 0.5 leaves an error budget of exactly 0.5; good then bad
    # makes the second evaluation burn (1 / 2) / 0.5 == 1.0 in both
    # windows, which is the factor and not above it.
    objective = SloObjective("lat", threshold_s=1e-3, target=0.5)
    rule = BurnRateRule(short_s=1.0, long_s=1.0, factor=1.0)
    report = SloMonitor(objective, [rule]).run([(0.1, 1e-4), (0.2, 2e-3)])
    assert report["alerts"] == []
    # One more bad sample burns (2 / 3) / 0.5 > 1.0, which fires.
    report = SloMonitor(objective, [rule]).run(
        [(0.1, 1e-4), (0.2, 2e-3), (0.3, 2e-3)]
    )
    assert [a["state"] for a in report["alerts"]] == ["fire"]


def test_monitor_lookback_is_open_on_the_left_and_closed_on_the_right():
    # A bad sample at t = 1.0 burns 2.0 on its own (it is at the edge of
    # its own lookback).  At t = 2.0 it sits exactly at edge - width, so
    # the 1 s lookback holds only the good sample and burns 0.0.
    objective = SloObjective("lat", threshold_s=1e-3, target=0.5)
    rule = BurnRateRule(short_s=1.0, long_s=1.0, factor=1.5)
    report = SloMonitor(objective, [rule]).run([(1.0, 2e-3), (2.0, 1e-4)])
    fire, resolve = report["alerts"]
    assert (fire["t_s"], fire["burn_short"], fire["burn_long"]) == (1.0, 2.0, 2.0)
    assert (resolve["t_s"], resolve["burn_short"], resolve["burn_long"]) == (
        2.0, 0.0, 0.0,
    )


def test_monitor_evaluates_samples_tied_at_one_instant_one_at_a_time():
    # Both samples complete at t = 1.0: the first is evaluated alone
    # (burn 2.0, fires), the second with both in the lookback (burn 1.0).
    objective = SloObjective("lat", threshold_s=1e-3, target=0.5)
    rule = BurnRateRule(short_s=1.0, long_s=1.0, factor=1.5)
    report = SloMonitor(objective, [rule]).run([(1.0, 2e-3), (1.0, 1e-4)])
    assert [(a["state"], a["burn_short"]) for a in report["alerts"]] == [
        ("fire", 2.0), ("resolve", 1.0),
    ]


def test_rolling_window_excludes_its_left_edge_and_includes_its_right():
    # Grid edge 0.5 with a 0.25 s window is (0.25, 0.5]: the sample at
    # 0.25 belongs to the row before, the one at 0.5 to this row.
    samples = [(0.25, 1e-4), (0.5, 2e-4)]
    rows = rolling_series(samples, end_s=1.0, window_s=0.25)["rows"]
    by_t = {row["t_s"]: row for row in rows}
    assert by_t[0.25]["count"] == 1 and by_t[0.25]["p99_us"] == pytest.approx(100.0)
    assert by_t[0.5]["count"] == 1 and by_t[0.5]["p99_us"] == pytest.approx(200.0)
    assert by_t[0.75]["count"] == 0
