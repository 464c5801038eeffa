"""Tiny-scale smoke tests for tracing overhead and the perf band guard.

Marked ``trace_smoke``: tier-1 companions to the ``perf_smoke`` tests
that pin the observability layer's cost model:

- tracing must add **zero simulated time** -- a traced run and an
  untraced run of the same seeded workload land on the same clock and
  the same counters;
- with tracing disabled (the default), the perf kernels must reproduce
  the simulated fingerprints recorded in ``BENCH_perf.json`` exactly
  and, when ``REPRO_PERF_BAND`` is set, stay within that wall-time band.
"""

import os
import pathlib

import pytest

from repro.bench.config import KB, BenchScale
from repro.bench.factory import make_store
from repro.bench.perf import check_band, find_run, load_results, run_kernels
from repro.workloads import fill_random, read_random

pytestmark = pytest.mark.trace_smoke

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

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


def test_kernels_stay_within_recorded_band():
    """The overhead guard: tracing-off kernels match BENCH_perf.json.

    Fingerprints must be bit-identical to the recorded tiny-scale run,
    always.  Wall time is checked only when ``REPRO_PERF_BAND`` names a
    factor: sub-millisecond kernels on a shared box spike past any band
    worth having about one run in ten, and CI's ``perf-band`` job
    (``repro perf --check-band``) already gates wall time.
    """
    path = REPO_ROOT / "BENCH_perf.json"
    if not path.exists():
        pytest.skip("no BENCH_perf.json recorded in this checkout")
    reference = find_run(load_results(path), "miodb", "tiny")
    if reference is None:
        pytest.skip("no tiny-scale perf run recorded for miodb")
    factor = float(os.environ.get("REPRO_PERF_BAND", "inf"))
    kernels = run_kernels(store_name="miodb", ops_scale="tiny", repeats=2)
    violations = check_band(kernels, reference, factor=factor)
    assert not violations, "\n".join(violations)
