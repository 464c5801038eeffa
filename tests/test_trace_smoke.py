"""Tiny-scale smoke tests for tracing's simulated cost: none.

Marked ``trace_smoke``: tier-1 companions to the ``perf_smoke`` pins.
Tracing must add **zero simulated time** -- a traced run and an
untraced run of the same seeded workload land on the same clock and
the same counters -- and a detached recorder sees nothing.
"""

import pytest

from repro.bench.config import KB, BenchScale
from repro.bench.factory import make_store
from repro.obs.events import CAT_QUEUE, DROP_QUEUE_FULL
from repro.workloads import fill_random, read_random

pytestmark = pytest.mark.trace_smoke

TINY = BenchScale(
    memtable_bytes=64 * KB, dataset_bytes=512 * KB, value_size=KB, rw_ops=64
)


def _drive(store, system):
    fill_random(store, 512, TINY.value_size, seed=1)
    read_random(store, 64, 512, seed=2)
    store.quiesce()
    return system.clock.now, system.stats.snapshot()


@pytest.mark.parametrize("name", ["miodb", "leveldb"])
def test_tracing_adds_zero_simulated_time(name):
    store, system = make_store(name, TINY)
    plain_clock, plain_stats = _drive(store, system)

    store, system = make_store(name, TINY)
    recorder = system.attach_tracing()
    traced_clock, traced_stats = _drive(store, system)
    recorder.detach()

    assert recorder.events, "traced run recorded nothing"
    assert traced_clock == plain_clock
    assert traced_stats == plain_stats


def test_detached_system_pays_no_tracing_cost():
    store, system = make_store("miodb", TINY)
    recorder = system.attach_tracing()
    system.detach_tracing()
    _drive(store, system)
    assert len(recorder.events) == 0
    assert system.obs is None
    assert all(d.obs is None for d in system.devices())


@pytest.mark.parametrize("live", [False, True])
def test_recorder_reads_the_clock_of_the_system_it_is_on(live):
    __, first = make_store("miodb", TINY)
    __, second = make_store("miodb", TINY)
    second.clock.advance(1.0)
    recorder = first.attach_live() if live else first.attach_tracing()
    assert recorder.clock is first.clock
    recorder.move(second)
    assert recorder.clock is second.clock
    recorder.instant("router", "drop", CAT_QUEUE, {"cause": DROP_QUEUE_FULL})
    assert recorder.events[-1].ts == 1.0
