"""Pins on the workload generators: the db_bench phases and YCSB A-F.

``tests/test_multi_ops.py`` proves a batched run equals a per-op run,
which also holds when both drift together.  Every row here drives one
scenario on one store and compares the simulated clock after each
phase, the stats registry and every kind's latency columns against
values recorded while each phase still wrote its op stream twice (a
per-op loop and a batched loop).  The pin does not depend on
``batch_size``: ``None``, ``1`` and ``37`` must all land on it.
Nothing here is a tolerance.

Regenerate (only when a change is *meant* to move simulated results)::

    PYTHONPATH=src python tests/test_workload_pins.py
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
    """``(pinned tuple, stats)`` for one scenario on a fresh store."""
    store, system = make_store(name, SCALE)
    if scenario == "dbbench":
        phases = _dbbench_phases(store, batch)
    else:
        phases = _ycsb_phases(store, batch, scenario[-1])
    clocks = []
    for result in phases:
        clocks.append((result.name, result.ops, repr(system.clock.now)))
    store.quiesce()
    latency = system.latency
    samples = [(kind, latency.samples_since(kind, 0)) for kind in latency.kinds()]
    stats = system.stats.snapshot()
    pinned = (
        tuple(clocks),
        repr(system.clock.now),
        _sha(sorted(stats.items())),
        _sha(samples),
    )
    return pinned, stats


# ------------------------------------------------------------------ pins
# ((phase, ops, clock after it) per phase, clock after quiesce, stats sha,
#  latency sha)

PINS = {
    ('miodb', 'dbbench'): (
        (
            ('fillrandom', 600, '0.000268010365459608'),
            ('readrandom', 250, '0.0008904825429078798'),
            ('overwrite', 300, '0.001019710225637683'),
            ('readseq', 200, '0.0016000586086733436'),
            ('deleterandom', 150, '0.0016570634376439387'),
            ('seekrandom', 60, '0.0025058524977187163'),
            ('fillseq', 400, '0.0036491547332257145'),
            ('readrandom', 150, '0.004075181321675196'),
        ),
        '0.004075181321675196',
        '65b79ec4d30b1c14',
        '1c85046f84389a0a',
    ),
    ('miodb', 'ycsb-A'): (
        (
            ('load', 500, '0.0002284928045496732'),
            ('ycsb-A', 700, '0.0010223809614158658'),
        ),
        '0.0016033356045986205',
        '3132772c6b5c45bd',
        'be267317227a1d75',
    ),
    ('miodb', 'ycsb-B'): (
        (
            ('load', 500, '0.0002284928045496732'),
            ('ycsb-B', 700, '0.001518273584663977'),
        ),
        '0.001518273584663977',
        '597b852b5169da96',
        'e189f69c5af07f63',
    ),
    ('miodb', 'ycsb-C'): (
        (
            ('load', 500, '0.0002284928045496732'),
            ('ycsb-C', 700, '0.0020159787478670915'),
        ),
        '0.0020159787478670915',
        'fa0966b2e43eda9d',
        '8d651b0396d430ba',
    ),
    ('miodb', 'ycsb-D'): (
        (
            ('load', 500, '0.0002284928045496732'),
            ('ycsb-D', 700, '0.0012611969944215855'),
        ),
        '0.0012611969944215855',
        'f81babed0ffdfc1b',
        '7dece0565b64a5d9',
    ),
    ('miodb', 'ycsb-E'): (
        (
            ('load', 500, '0.0002284928045496732'),
            ('ycsb-E', 700, '0.01682594538559039'),
        ),
        '0.01682594538559039',
        '0f332464d48268fe',
        '44d3b388ce439d2a',
    ),
    ('miodb', 'ycsb-F'): (
        (
            ('load', 500, '0.0002284928045496732'),
            ('ycsb-F', 1035, '0.0015922721088005272'),
        ),
        '0.0021238762852480208',
        'c05f72da7d2b0601',
        'a153269d1f87bdd0',
    ),
    ('leveldb', 'dbbench'): (
        (
            ('fillrandom', 600, '0.004270460365459609'),
            ('readrandom', 250, '0.00584853024429636'),
            ('overwrite', 300, '0.007979472927026134'),
            ('readseq', 200, '0.009270772896947225'),
            ('deleterandom', 150, '0.009331032725917836'),
            ('seekrandom', 60, '0.010534658289879975'),
            ('fillseq', 400, '0.01411493101873656'),
            ('readrandom', 150, '0.01505277075816943'),
        ),
        '0.01505277075816943',
        'f56c75ea716a8f2f',
        '658b965c9ba96700',
    ),
    ('leveldb', 'ycsb-A'): (
        (
            ('load', 500, '0.003222682804549679'),
            ('ycsb-A', 700, '0.006138743261336001'),
        ),
        '0.006494244993897441',
        '40d1e09dd4cca0a7',
        '2e106884be389cd1',
    ),
    ('leveldb', 'ycsb-B'): (
        (
            ('load', 500, '0.003222682804549679'),
            ('ycsb-B', 700, '0.006968611813797729'),
        ),
        '0.006968611813797729',
        'ecd953d663afa34e',
        '326663ccec89cc89',
    ),
    ('leveldb', 'ycsb-C'): (
        (
            ('load', 500, '0.003222682804549679'),
            ('ycsb-C', 700, '0.00845005883753994'),
        ),
        '0.00845005883753994',
        '5a497599fc29e611',
        'cab8a966b2de91c9',
    ),
    ('leveldb', 'ycsb-D'): (
        (
            ('load', 500, '0.003222682804549679'),
            ('ycsb-D', 700, '0.006047029102569486'),
        ),
        '0.006047029102569486',
        'ca3d718769c832d3',
        'e309290bc92d55d0',
    ),
    ('leveldb', 'ycsb-E'): (
        (
            ('load', 500, '0.003222682804549679'),
            ('ycsb-E', 700, '0.026665696058446015'),
        ),
        '0.026665696058446015',
        '5628e89ccb7fd5d3',
        'ff077e8082ddcf07',
    ),
    ('leveldb', 'ycsb-F'): (
        (
            ('load', 500, '0.003222682804549679'),
            ('ycsb-F', 1035, '0.007834043756538766'),
        ),
        '0.008147955570345864',
        'f9160fdb616d14f5',
        '3709c500f547131f',
    ),
}


@pytest.mark.parametrize("batch", BATCH_SIZES, ids=lambda b: f"batch-{b}")
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("name", STORES)
def test_workload_is_pinned(name, scenario, batch):
    observed, stats = _observe(name, scenario, batch)
    # The vacuity guard: a run that never left the MemTable pins nothing.
    assert stats.get("flush.count", 0) >= 2, "scenario never flushed"
    assert stats.get("compact.count", 0) >= 1, "scenario never compacted"
    assert observed == PINS[name, scenario]


if __name__ == "__main__":  # print the literal table
    print("PINS = {")
    for store_name in STORES:
        for scenario_name in SCENARIOS:
            clocks, *rest = _observe(store_name, scenario_name, None)[0]
            print(f"    ({store_name!r}, {scenario_name!r}): (\n        (")
            for row in clocks:
                print(f"            {row!r},")
            print("        ),")
            for value in rest:
                print(f"        {value!r},")
            print("    ),")
    print("}")
