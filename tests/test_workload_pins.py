"""Pins on the workload generators: the db_bench phases and YCSB A-F.

``tests/test_multi_ops.py`` proves a batched run equals a per-op run,
which also holds when both drift together.  Every row here drives one
scenario on one store and compares the simulated clock after each
phase, the stats registry and every kind's latency columns against
values recorded while each phase still wrote its op stream twice (a
per-op loop and a batched loop).  The pin does not depend on
``batch_size``: ``None``, ``1`` and ``37`` must all land on it.
Nothing here is a tolerance.
"""

import hashlib

import pytest

from repro.bench.config import BenchScale
from repro.bench.factory import make_store
from repro.workloads.dbbench import (
    delete_random,
    fill_random,
    fill_seq,
    overwrite,
    read_random,
    seek_random,
)
from repro.sim.rng import XorShiftRng
from repro.workloads.keys import key_for
from repro.workloads.runner import Phase, issue_gets
from repro.workloads.ycsb import YCSB_WORKLOADS, load_phase, run_workload

KB = 1 << 10
VALUE = 256
#: Tables small enough that every scenario flushes and compacts.
SCALE = BenchScale(memtable_bytes=8 * KB, nvm_buffer_bytes=128 * KB, value_size=VALUE)
STORES = ("miodb", "leveldb")
BATCH_SIZES = (None, 1, 37)
SCENARIOS = ("dbbench",) + tuple(f"ycsb-{letter}" for letter in "ABCDEF")


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _gets(store, name, keys, batch):
    """A read phase from the runner's parts: ``readseq`` from the middle
    of the key space, ``readrandom`` over keys a delete phase removed."""
    with Phase(name, store.system) as phase:
        issue_gets(store, keys, batch)
    return phase.result()


def _dbbench_phases(store, batch):
    """All seven db_bench phases on one store, writes and reads interleaved."""
    n = 600
    yield fill_random(store, n, VALUE, seed=1, batch_size=batch)
    yield read_random(store, 250, n, seed=2, batch_size=batch)
    yield overwrite(store, 300, n, VALUE, seed=3, batch_size=batch)
    yield _gets(store, "readseq", (key_for((450 + i) % n) for i in range(200)), batch)
    yield delete_random(store, 150, n, seed=4, batch_size=batch)
    yield seek_random(store, 60, n, scan_length=12, seed=5)
    result = fill_seq(store, 400, VALUE, batch_size=batch)
    store.quiesce()
    yield result
    rng = XorShiftRng(6)
    yield _gets(store, "readrandom", (key_for(rng.next_below(n)) for __ in range(150)), batch)


def _ycsb_phases(store, batch, letter):
    records = 500
    yield load_phase(store, records, VALUE, seed=11, batch_size=batch)
    yield run_workload(
        store, YCSB_WORKLOADS[letter], 700, records, VALUE, seed=23,
        check_reads=letter != "D", batch_size=batch,
    )


def _observe(name, scenario, batch):
    """``(pinned value, stats)`` for one scenario on a fresh store."""
    store, system = make_store(name, SCALE)
    if scenario == "dbbench":
        phases = _dbbench_phases(store, batch)
    else:
        phases = _ycsb_phases(store, batch, scenario[-1])
    # (phase, ops, clock after it) per phase
    clocks = [(result.name, result.ops, system.clock.now) for result in phases]
    store.quiesce()
    latency = system.latency
    samples = [(kind, latency.samples_since(kind, 0)) for kind in latency.kinds()]
    stats = system.stats.snapshot()
    pinned = {
        "phases": clocks,
        "clock": system.clock.now,  # after quiesce
        "stats": _sha(sorted(stats.items())),
        "latency": _sha(samples),
    }
    return pinned, stats


@pytest.mark.parametrize("batch", BATCH_SIZES, ids=lambda b: f"batch-{b}")
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("name", STORES)
def test_workload_is_pinned(name, scenario, batch, pin):
    observed, stats = _observe(name, scenario, batch)
    # The vacuity guard: a run that never left the MemTable pins nothing.
    assert stats.get("flush.count", 0) >= 2, "scenario never flushed"
    assert stats.get("compact.count", 0) >= 1, "scenario never compacted"
    pin(f"workload/{name}/{scenario}", observed)
