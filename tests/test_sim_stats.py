"""Unit tests for the stats registry."""

from repro.sim.stats import KEY_FAMILIES, StatsRegistry


def test_add_accumulates():
    stats = StatsRegistry()
    assert stats.add("x", 1.0) == 1.0
    assert stats.add("x", 2.5) == 3.5
    assert stats.get("x") == 3.5


def test_add_default_increment():
    stats = StatsRegistry()
    stats.add("count")
    stats.add("count")
    assert stats.get("count") == 2.0


def test_get_default():
    stats = StatsRegistry()
    assert stats.get("missing") == 0.0
    assert stats.get("missing", -1.0) == -1.0


def test_max_keeps_running_maximum():
    stats = StatsRegistry()
    stats.max("peak", 3.0)
    stats.max("peak", 1.0)
    assert stats.get("peak") == 3.0
    stats.max("peak", 7.0)
    assert stats.get("peak") == 7.0


def test_snapshot_is_a_copy():
    stats = StatsRegistry()
    stats.add("x", 1.0)
    snap = stats.snapshot()
    snap["x"] = 99.0
    assert stats.get("x") == 1.0


def test_contains():
    stats = StatsRegistry()
    assert "x" not in stats
    stats.add("x")
    assert "x" in stats


def test_snapshot_grouped_nests_by_family():
    stats = StatsRegistry()
    stats.add("flush.count", 2.0)
    stats.add("flush.time_s", 0.5)
    stats.add("op.put", 10.0)
    assert stats.snapshot_grouped() == {
        "flush": {"count": 2.0, "time_s": 0.5},
        "op": {"put": 10.0},
    }


def test_stores_emit_only_registered_families():
    """Every store's counters stay inside the documented vocabulary."""
    from repro.bench.config import BenchScale
    from repro.bench.factory import STORE_NAMES, make_store
    from repro.workloads import fill_random

    KB = 1 << 10
    scale = BenchScale(
        memtable_bytes=32 * KB, dataset_bytes=128 * KB, value_size=KB
    )
    for name in STORE_NAMES:
        store, system = make_store(name, scale)
        fill_random(store, 128, scale.value_size, seed=1)
        store.quiesce()
        families = set(system.stats.snapshot_grouped())
        assert families <= set(KEY_FAMILIES), (name, families)
