"""Tests for the open-loop load generator."""

import math

import pytest

from repro.bench import make_store
from repro.bench.config import BenchScale
from repro.kvstore.values import SizedValue
from repro.workloads.openloop import run_open_loop

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=64 * KB, dataset_bytes=1 << 20, value_size=1024)


def writer(store, value_size=1024):
    def op(i):
        store.put(b"key%08d" % (i % 4000), SizedValue(i, value_size))

    return op


def test_rate_validation():
    store, __ = make_store("miodb", SCALE)
    with pytest.raises(ValueError):
        run_open_loop(store, writer(store), 10, 0)


def test_nan_rate_is_rejected():
    store, __ = make_store("miodb", SCALE)
    with pytest.raises(ValueError):
        run_open_loop(store, writer(store), 10, rate_per_s=float("nan"))


def test_low_rate_response_equals_service_time():
    store, __ = make_store("miodb", SCALE)
    result = run_open_loop(store, writer(store), 500, rate_per_s=1000)
    # far below capacity: no queueing, response ~ a few microseconds
    assert not result.saturated
    assert result.response.p999 < 1e-3
    assert result.max_queue_delay < 1e-3


def test_overload_saturates_and_queues():
    store, system = make_store("leveldb", SCALE)
    # LevelDB sustains well under 100K writes/s at this scale; offer 10x
    result = run_open_loop(store, writer(store), 3000, rate_per_s=2_000_000)
    assert result.saturated
    assert result.achieved_rate < result.offered_rate
    # queueing delay dwarfs the per-op service time
    assert result.response.p999 > 10 * result.response.p50 or (
        result.max_queue_delay > 1e-3
    )


def test_miodb_sustains_higher_open_loop_rate_than_leveldb():
    achieved = {}
    for name in ("miodb", "leveldb"):
        store, __ = make_store(name, SCALE)
        result = run_open_loop(store, writer(store), 3000, rate_per_s=500_000)
        achieved[name] = result.achieved_rate
    assert achieved["miodb"] > achieved["leveldb"]


def test_zero_ops_is_an_empty_result():
    store, __ = make_store("miodb", SCALE)
    result = run_open_loop(store, writer(store), 0, rate_per_s=1000)
    assert (result.ops, result.achieved_rate, result.max_queue_delay) == (0, 0.0, 0.0)
    assert result.response.count == 0 and result.response.p999 == 0.0


def test_infinite_rate_is_refused():
    store, __ = make_store("miodb", SCALE)
    with pytest.raises(ValueError, match="finite"):
        run_open_loop(store, writer(store), 10, rate_per_s=math.inf)
