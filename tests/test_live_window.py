"""Windowed aggregation, OpenMetrics export, and the live dashboard."""

import pytest

from repro.mem.system import HybridMemorySystem
from repro.obs.live import (
    LiveDashboard,
    WindowAggregator,
    openmetrics_text,
)
from repro.obs.live.dashboard import render_frame, sparkline
from repro.obs.live.window import MAX_ROWS
from repro.obs.runner import run_traced

pytestmark = pytest.mark.obs_live

LIVE = {"seed": 1, "stall_alert_s": 1e-5, "slo_threshold_s": 5e-6}


def _fill(wa, n, lat=1e-6):
    """``n`` op spans of latency ``lat`` land in ``wa``'s open window."""
    wa.latencies.extend([lat] * n)


# --------------------------------------------------------------- aggregation


def test_windows_align_to_multiples_of_window_size():
    system = HybridMemorySystem()
    wa = WindowAggregator(None)
    _fill(wa, 10)
    assert wa.maybe_tick(9e-4, system) is None  # edge not crossed yet
    assert wa.maybe_tick(1e-3, system) == (1e-3, 10, 0)
    row = wa.rows[-1]
    assert row["t_s"] == 1e-3
    assert row["ops"] == 10
    assert row["kiops"] == pytest.approx(10 / 1e-3 / 1e3)
    assert row["p50_us"] == pytest.approx(1.0)


def test_window_percentiles_are_nearest_rank_over_the_window():
    from repro.sim.latency import percentile

    system = HybridMemorySystem()
    wa = WindowAggregator(None)
    lats = [(i * 37 % 101 + 1) * 1e-7 for i in range(101)]
    wa.latencies.extend(lats)
    wa.maybe_tick(1e-3, system)
    ranked = sorted(lats)
    row = wa.rows[-1]
    assert row["p50_us"] == percentile(ranked, 50) * 1e6
    assert row["p99_us"] == percentile(ranked, 99) * 1e6
    assert wa.latencies == []  # the next window starts empty


def test_empty_windows_produce_no_rows():
    system = HybridMemorySystem()
    wa = WindowAggregator(None)
    _fill(wa, 4)
    assert wa.maybe_tick(1e-3, system)
    # A long idle stretch then one op: exactly one more row, no zeros.
    _fill(wa, 1)
    assert wa.maybe_tick(8e-3, system)
    assert len(wa.rows) == 2
    assert wa.rows[-1]["ops"] == 1
    assert wa.next_edge == pytest.approx(9e-3)


def test_finalize_flushes_the_partial_window():
    system = HybridMemorySystem()
    wa = WindowAggregator(None)
    _fill(wa, 3)
    wa.close(4.5e-4, system)
    assert len(wa.rows) == 1
    assert wa.rows[0]["t_s"] == 4.5e-4
    assert wa.rows[0]["ops"] == 3
    assert wa.close(5e-4, system) is None  # nothing new: no extra row
    assert len(wa.rows) == 1


def test_row_cap_drops_oldest_and_counts():
    system = HybridMemorySystem()
    wa = WindowAggregator(None)
    for i in range(MAX_ROWS + 2):
        _fill(wa, 1)
        wa.maybe_tick((i + 1.5) * 1e-3, system)  # mid-window: one edge per tick
    assert len(wa.rows) == MAX_ROWS == 4096
    assert wa.dropped_rows == 2
    assert wa.rows[0]["t_s"] == pytest.approx(3e-3)


def test_window_counters_count_every_closed_window(monkeypatch):
    # The row cap bounds memory, not the counters: repro_windows_total
    # and live.windows count the rows dropped past it too.
    import repro.obs.live.window as window

    monkeypatch.setattr(window, "MAX_ROWS", 1)
    __, system, rec = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    assert len(rec.window.rows) == 1 and rec.window.dropped_rows == 1
    assert 'repro_windows_total{shard="0"} 2' in openmetrics_text(rec).splitlines()
    assert system.stats.get("live.windows") == 2


def test_window_listener_receives_bad_counts():
    # The recorder hands each closed window's op and SLO-bad counts to
    # the flight recorder's burn-rate rule; bad means over the threshold.
    system = HybridMemorySystem()
    rec = system.attach_live(slo_threshold_s=5e-6)
    seen = []
    rec.flight.on_window = lambda t_s, ops, bad: seen.append((t_s, ops, bad))
    start = system.clock.now
    for lat in (1e-6, 6e-6, 4e-6, 9e-6, 2e-6):
        system.clock.advance(lat)
        rec.span("foreground", "put", "op", system.clock.now - lat, system.clock.now)
    system.clock.advance(1e-3 - (system.clock.now - start))
    rec.span("foreground", "put", "op", system.clock.now - 1e-6, system.clock.now)
    assert seen == [(1e-3, 6, 2)]
    rec.detach()  # the open (empty) window closes no row
    assert seen == [(1e-3, 6, 2)]


# --------------------------------------------------------------- openmetrics


def test_openmetrics_document_shape():
    __, __, rec = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    text = openmetrics_text(rec, labels=["0"])
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    assert text.endswith("# EOF\n")
    # Every family declares TYPE then HELP, counters sample as _total.
    assert "# TYPE repro_ops_seen counter" in lines
    assert "# HELP repro_ops_seen Foreground ops observed." in lines
    assert any(
        line.startswith('repro_ops_seen_total{shard="0"} ') for line in lines
    )
    assert "# TYPE repro_window_p99_seconds gauge" in lines
    assert any(
        line.startswith('repro_ops_retained_total{shard="0",decision="head"} ')
        for line in lines
    )
    # The scenario stalls: stall seconds must be exported by cause.
    assert any(
        line.startswith('repro_stall_seconds_total{shard="0",cause=')
        for line in lines
    )
    assert any(
        line.startswith('repro_flight_dumps_total{shard="0",trigger=')
        for line in lines
    )


def test_openmetrics_rejects_label_mismatch():
    __, __, rec = run_traced("miodb", n=256, reads=0, live={})
    with pytest.raises(ValueError):
        openmetrics_text([rec], labels=["0", "1"])


def test_cluster_openmetrics_is_deterministic():
    from repro.cluster import (
        ClientSpec,
        Cluster,
        ShardRouter,
        cluster_openmetrics_text,
        run_cluster,
    )

    def drive():
        cluster = Cluster("miodb", n_shards=2)
        router = ShardRouter(cluster)
        recorders = cluster.attach_live(seed=3)
        run_cluster(
            router,
            [
                ClientSpec(n_ops=200, rate_per_s=float("inf"),
                           key_space=400, seed=s)
                for s in (1, 2)
            ],
        )
        for rec in recorders:
            rec.detach()
        return cluster_openmetrics_text(cluster, recorders)

    a, b = drive(), drive()
    assert a == b
    assert 'shard="1"' in a


class _StubMember:
    def __init__(self, replica_id, applied_lsn):
        self.replica_id = replica_id
        self.applied_lsn = applied_lsn


class _StubGroup:
    """Just enough replica-group surface for the lag gauge."""

    def __init__(self, log_len, applied_by_replica):
        self.log = [None] * log_len
        self._members = [
            _StubMember(rid, lsn) for rid, lsn in applied_by_replica
        ]

    def alive_followers(self):
        return self._members


def test_openmetrics_repl_lag_samples_are_pinned():
    __, __, rec = run_traced("miodb", n=128, reads=0, live={})
    groups = [_StubGroup(10, [(1, 10), (2, 7)])]
    text = openmetrics_text(rec, labels=["0"], groups=groups)
    lag_lines = [line for line in text.splitlines() if "repro_repl_lag" in line]
    assert lag_lines == [
        "# TYPE repro_repl_lag gauge",
        "# HELP repro_repl_lag Acked log records not yet applied, "
        "per live follower.",
        'repro_repl_lag{shard="0",replica="1"} 0',
        'repro_repl_lag{shard="0",replica="2"} 3',
    ]


def test_openmetrics_without_groups_has_no_lag_family():
    __, __, rec = run_traced("miodb", n=128, reads=0, live={})
    assert "repro_repl_lag" not in openmetrics_text(rec, labels=["0"])
    # A shard without a replica group contributes no samples either.
    with_empty = openmetrics_text(rec, labels=["0"], groups=[None])
    assert "# TYPE repro_repl_lag gauge" in with_empty
    assert 'repro_repl_lag{' not in with_empty


def test_replicated_cluster_openmetrics_exports_follower_lag():
    from repro.cluster import (
        ClientSpec,
        Cluster,
        ShardRouter,
        cluster_openmetrics_text,
        run_cluster,
    )
    from repro.replication import ReplicationConfig

    def drive():
        cluster = Cluster(
            "miodb", n_shards=2,
            replication=ReplicationConfig(followers=2),
        )
        router = ShardRouter(cluster)
        recorders = cluster.attach_live(seed=3)
        run_cluster(
            router,
            [ClientSpec(n_ops=100, rate_per_s=float("inf"),
                        key_space=200, seed=1)],
            sessions=[router.session()],
        )
        for rec in recorders:
            rec.detach()
        return cluster_openmetrics_text(cluster, recorders)

    a, b = drive(), drive()
    assert a == b
    assert 'repro_repl_lag{shard="0",replica="1"}' in a
    assert 'repro_repl_lag{shard="1",replica="2"}' in a


# ----------------------------------------------------------------- dashboard


def test_sparkline_renders_last_width_values_monotonically():
    from repro.obs.live.dashboard import SPARK_CHARS, SPARK_WIDTH

    assert sparkline([]) == ""
    assert len(sparkline([0.0, 0.5, 1.0])) == 3
    assert len(sparkline([float(i) for i in range(40)])) == SPARK_WIDTH == 24
    chars = sparkline([float(i) for i in range(8)])
    ranks = [SPARK_CHARS.index(c) for c in chars]
    assert ranks == sorted(ranks), "ramp should render monotonically"


def test_dashboard_frames_are_deterministic():
    def drive():
        __, __, rec = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
        return render_frame([rec], ["0"], now=rec.clock.now)

    a, b = drive(), drive()
    assert a == b
    assert "live telemetry" in a
    assert "p99" in a


def test_dashboard_refresh_cadence():
    __, __, rec = run_traced("miodb", n=512, reads=64, live=dict(LIVE))
    frames = []
    dash = LiveDashboard([rec], refresh_s=1e-3, sink=frames.append)
    assert dash.maybe_refresh(5e-4) is False
    assert dash.maybe_refresh(1e-3) is True
    assert dash.maybe_refresh(1.2e-3) is False  # within the refresh period
    assert dash.maybe_refresh(2.5e-3) is True
    assert len(frames) == 2
    assert len(dash.frames) == 2
    for refresh_s in (0.0, float("nan")):
        with pytest.raises(ValueError, match="refresh_s"):
            LiveDashboard([rec], refresh_s=refresh_s)
