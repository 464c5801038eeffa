"""Pins on the write path: WAL -> MemTable -> rotate -> stall -> flush.

Every row drives one store configuration through fill -> overwrite ->
delete at a MemTable small enough that the branch named in ``GUARDS``
fires, and compares the simulated clock, the stats registry, the latency
samples, the retained WAL and the executor's worker list against values
recorded before the write buffer was factored out of the engines.
Nothing here is a tolerance: a refactor of the write path is correct
iff none of these move.

Regenerate (only when a change is *meant* to move simulated results)::

    PYTHONPATH=src python tests/test_write_path_pins.py
"""

import hashlib

import pytest

from repro.bench.config import BenchScale
from repro.bench.factory import make_store
from repro.core import MioDB, MioOptions, recover
from repro.kvstore.batch import WriteBatch
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.replication import ReplicaGroup, ReplicationConfig

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, nvm_buffer_bytes=128 * KB, value_size=512)

#: label -> (store name, ssd, value size, option overrides, stall causes
#: that must appear in the run's trace -- the vacuity guard: a row whose
#: branch never fired pins nothing).
FAST = {"slowdown_delay_s": 1e-6}  # let L0 / the container actually fill
CASES = {
    "miodb": ("miodb", False, 512, {}, ()),
    "miodb-4k-values": ("miodb", False, 4096, {}, ("memtable-full",)),
    "miodb-ssd": ("miodb", True, 512, {}, ()),
    "miodb-buffer-cap": (
        "miodb", False, 512, {"max_nvm_buffer_bytes": 64 * KB}, ("buffer-cap",),
    ),
    "miodb-interval": (
        "miodb", False, 512, {"fsync_policy": "interval:0.0001"}, ("memtable-full",),
    ),
    "matrixkv": ("matrixkv", False, 512, {}, ("l0-slowdown",)),
    "matrixkv-container-stop": (
        "matrixkv", False, 4096, FAST, ("l0-slowdown", "l0-stop", "memtable-full"),
    ),
    "matrixkv-ssd": (
        "matrixkv", True, 512, dict(FAST, container_bytes=32 * KB),
        ("l0-slowdown", "l0-stop"),
    ),
    "novelsm": ("novelsm", False, 512, {}, ("l0-slowdown", "l0-stop")),
    "novelsm-nvm-chain": (
        "novelsm", True, 512, dict(FAST, nvm_memtable_bytes=16 * KB),
        ("l0-slowdown", "l0-stop", "memtable-full"),
    ),
    "novelsm-hier": ("novelsm-hier", False, 512, {}, ("l0-slowdown", "memtable-full")),
    "novelsm-nosst": ("novelsm-nosst", False, 512, {}, ()),
    "leveldb": ("leveldb", False, 512, {}, ("l0-slowdown", "memtable-full")),
    "leveldb-l0-stop": (
        "leveldb", False, 512, FAST, ("l0-slowdown", "l0-stop", "memtable-full"),
    ),
    "leveldb-ssd": ("leveldb", True, 512, FAST, ("l0-slowdown", "l0-stop")),
    "leveldb-batch8": (
        "leveldb", False, 512, {"fsync_policy": "batch:8"},
        ("l0-slowdown", "memtable-full"),
    ),
    "slmdb": ("slmdb", False, 512, {}, ("memtable-full",)),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _drive(store, n=1500, value=512):
    for i in range(n):
        store.put(b"key%06d" % ((i * 7919) % n), SizedValue(("f", i), value))
    for i in range(0, n, 2):
        store.put(b"key%06d" % ((i * 104729) % n), SizedValue(("o", i), value))
    for i in range(0, n, 3):
        store.delete(b"key%06d" % i)


def _observe(store, system):
    """The pinned tuple for one store on one machine."""
    latency = system.latency
    samples = [(kind, latency.samples_since(kind, 0)) for kind in latency.kinds()]
    wal = getattr(store, "wal", None)
    return (
        repr(system.clock.now),
        _sha(sorted(system.stats.snapshot().items())),
        _sha(samples),
        wal.record_count if wal is not None else None,
        ",".join(w.name for w in system.executor.workers),
    )


def _stall_causes(recorder):
    return {
        e.args["cause"] for e in recorder.events
        if isinstance(e.args, dict) and "cause" in e.args
    }


def _run_case(label):
    name, ssd, value, overrides, __ = CASES[label]
    store, system = make_store(name, SCALE, ssd=ssd, **overrides)
    recorder = system.attach_tracing()  # clock-neutral; only feeds the guard
    _drive(store, value=value)
    mid = repr(system.clock.now)
    store.quiesce()
    return (mid,) + _observe(store, system), _stall_causes(recorder)


def _run_write_batch():
    """``MioDB.write`` batches that span MemTable rotations."""
    system = HybridMemorySystem()
    store = MioDB(system, MioOptions(memtable_bytes=8 * KB, num_levels=3))
    recorder = system.attach_tracing()
    rotations = 0
    for b in range(40):
        batch = WriteBatch()
        for i in range(24):
            key = b"key%06d" % ((b * 24 + i) * 31 % 600)
            if i % 7 == 6:
                batch.delete(key)
            else:
                batch.put(key, SizedValue((b, i), 1024))
        before = store.memtable
        store.write(batch)
        # 24 KB of values into an 8 KB MemTable: every batch rotates
        # mid-way, some of them onto a still-flushing immutable.
        rotations += store.memtable is not before
    mid = repr(system.clock.now)
    store.quiesce()
    return (mid,) + _observe(store, system), rotations, _stall_causes(recorder)


def _run_recover():
    """Crash with several MemTables' worth of WAL retained; replay rotates."""
    system = HybridMemorySystem()
    injector = CrashInjector()
    # The first flush never completes its copy, so the WAL is never
    # truncated and recovery replays every record.
    injector.arm("flush.after_copy", 1)
    store = MioDB(
        system, MioOptions(memtable_bytes=4 * KB, num_levels=3),
        crash_injector=injector,
    )
    with pytest.raises(SimulatedCrash):
        for i in range(400):
            store.put(b"key%06d" % ((i * 7919) % 300), SizedValue(i, 512))
    retained = store.wal.record_count
    flushes = system.stats.get("flush.count")
    recovered, seconds = recover(store)
    rotated = system.stats.get("flush.count") > flushes
    _drive(recovered, n=300)
    recovered.quiesce()
    return (repr(seconds), retained) + _observe(recovered, system), rotated


def _run_group():
    """2 followers, 8 KB MemTables, big ship batches, leader-only acks:
    followers replay far behind the leader and rotate over an immutable
    MemTable whose flush is still in flight."""
    group = ReplicaGroup.build(
        "miodb", BenchScale(memtable_bytes=8 * KB),
        ReplicationConfig(followers=2, ack_policy="leader", ship_batch=64),
    )
    over_inflight = [0]
    for member in group.members[1:]:
        def spy(store=member.store, rotate=member.store._rotate_memtable):
            over_inflight[0] += store.immutable is not None
            rotate()
        member.store._rotate_memtable = spy
    for i in range(3000):
        key = b"key%06d" % ((i * 7919) % 2000)
        if i % 11 == 10:
            group.delete(key)
        else:
            group.put(key, SizedValue(i, 1024))
    mid = repr(group.clock.now)
    group.quiesce()
    observed = (
        mid,
        _sha(sorted(group.stats.snapshot().items())),
        _sha(sorted(group.snapshot().items(), key=repr)),
    ) + tuple(_observe(m.store, m.system) for m in group.members)
    return observed, over_inflight[0]


# ------------------------------------------------------------------ pins
# (clock before quiesce, clock after, stats sha, latency sha, WAL records,
#  workers in creation order)

PINS = {
    'miodb': (
        '0.0014521848570299273',
        '0.011143037501122239',
        'cb2738a9f72d8b9b',
        '8640318fe96b951b',
        48,
        'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush',
    ),
    'miodb-4k-values': (
        '0.005528081262426195',
        '0.013280832855147426',
        'b27e873ad151eead',
        '045773d91c927826',
        48,
        'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush',
    ),
    'miodb-ssd': (
        '0.0014521848570299273',
        '0.0341429593741353',
        'fa2afce535c97feb',
        '8640318fe96b951b',
        48,
        'miodb-ssd-compact-0,miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush',
    ),
    'miodb-buffer-cap': (
        '0.009137132358853488',
        '0.009588489942777195',
        'c8bd7344b60cf280',
        '4c27eda5e50d951a',
        48,
        'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush',
    ),
    'miodb-interval': (
        '0.0011102590222361595',
        '0.01113728364582306',
        'd9a4cc805018a981',
        '9bfefddcb227a8d1',
        48,
        'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush',
    ),
    'matrixkv': (
        '0.15546653485703227',
        '0.15606069072040268',
        '7ff7148f0f74f8c4',
        '9083fe6300396b62',
        48,
        'matrixkv-compact-0,matrixkv-compact-1,matrixkv-compact-2,matrixkv-compact-3,matrixkv-flush,matrixkv-column',
    ),
    'matrixkv-container-stop': (
        '0.14054582796011772',
        '0.16188104741010692',
        '8810de687a3db701',
        'de4d9a71ef052744',
        48,
        'matrixkv-compact-0,matrixkv-compact-1,matrixkv-compact-2,matrixkv-compact-3,matrixkv-flush,matrixkv-column',
    ),
    'matrixkv-ssd': (
        '0.20506141354025378',
        '0.2156484318087725',
        'a2f5364b45f25f60',
        '37d2b5e86ababd2c',
        48,
        'matrixkv-compact-0,matrixkv-compact-1,matrixkv-compact-2,matrixkv-compact-3,matrixkv-flush,matrixkv-column',
    ),
    'novelsm': (
        '0.05998542265412483',
        '0.06169907598952012',
        '67b99c9f45973726',
        '1cfaff93f7f09a26',
        34,
        'novelsm-compact-0,novelsm-dram-flush,novelsm-nvm-flush',
    ),
    'novelsm-nvm-chain': (
        '0.13081420086804715',
        '0.14138958708965194',
        'a8c9733be4bd2e37',
        'd6267b20757f24d4',
        83,
        'novelsm-compact-0,novelsm-dram-flush,novelsm-nvm-flush',
    ),
    'novelsm-hier': (
        '0.07459390802943168',
        '0.07808000659982844',
        'b57927a16608d494',
        'da2a0ea767de60de',
        48,
        'novelsm-hier-compact-0,novelsm-hier-dram-flush,novelsm-hier-nvm-flush',
    ),
    'novelsm-nosst': (
        '0.006252892177342588',
        '0.006252892177342588',
        'ed6b38040561be44',
        '1f8c79cf216a3168',
        None,
        '',
    ),
    'leveldb': (
        '0.12577655909595992',
        '0.12735301706886853',
        '5dab0049247988cb',
        '1dc8f819b1d9e5db',
        48,
        'leveldb-compact-0,leveldb-flush',
    ),
    'leveldb-l0-stop': (
        '0.02012475832154998',
        '0.021797344342174223',
        '1c7f91bb065e5440',
        'af9b4c58f0e8f93a',
        48,
        'leveldb-compact-0,leveldb-flush',
    ),
    'leveldb-ssd': (
        '0.14097504669857422',
        '0.14667584361737368',
        'b30335816da7bb97',
        '3f9901bb5e67244b',
        48,
        'leveldb-compact-0,leveldb-flush',
    ),
    'leveldb-batch8': (
        '0.1256959856546016',
        '0.1272869571468931',
        'db2dc4da3232de58',
        'c9befff8e08b4df5',
        48,
        'leveldb-compact-0,leveldb-flush',
    ),
    'slmdb': (
        '0.09436041416148465',
        '0.09714112912738843',
        '1f8a45612c795f58',
        'e135b1721cacf133',
        48,
        'slmdb-background',
    ),
}
PIN_WRITE_BATCH = ('0.0009663466904405442',
 '0.002895964015746719',
 '85db31d229c016c3',
 '322a13b14e322397',
 9,
 'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-flush')
PIN_RECOVER = ('7.715099255362633e-06',
 13,
 '0.001067048557908869',
 '2e20709719b94e99',
 '51c66c17a352df19',
 42,
 'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-flush')
PIN_GROUP = ('0.0021639476479241733',
 'bd6d1dfc2d1d34dd',
 '664419dd8725d4bd',
 ('0.030205620097762984',
  '3e05eba6a865fcf9',
  '65d981106e6cf2e0',
  9,
  'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush,repl-ship-g0-r0,repl-apply-g0-r0'),
 ('0.030205620097762984',
  '38c97f8859c3c955',
  '4f53cda18c2baa0c',
  9,
  'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush,repl-ship-g0-r1,repl-apply-g0-r1'),
 ('0.030205620097762984',
  '38c97f8859c3c955',
  '4f53cda18c2baa0c',
  9,
  'miodb-compact-L0,miodb-compact-L1,miodb-compact-L2,miodb-compact-L3,miodb-compact-L4,miodb-compact-L5,miodb-compact-L6,miodb-compact-L7,miodb-flush,repl-ship-g0-r2,repl-apply-g0-r2'))


@pytest.mark.parametrize("label", sorted(CASES))
def test_store_write_path_is_pinned(label):
    observed, causes = _run_case(label)
    assert causes == set(CASES[label][4]), f"{label}: stall branches moved"
    assert observed == PINS[label]


def test_every_stall_branch_has_a_row():
    fired = {}
    for name, __, __, __, causes in CASES.values():
        fired.setdefault(name, set()).update(causes)
    l0_engine = {"l0-slowdown", "l0-stop", "memtable-full"}
    assert fired["leveldb"] == fired["matrixkv"] == fired["novelsm"] == l0_engine
    assert fired["miodb"] == {"memtable-full", "buffer-cap"}
    assert fired["slmdb"] == fired["novelsm-hier"] - {"l0-slowdown"} == {"memtable-full"}


def test_write_batch_spanning_rotations_is_pinned():
    observed, rotations, causes = _run_write_batch()
    assert rotations >= 30
    assert causes == {"memtable-full"}  # a batch waited on the in-flight flush
    assert observed == PIN_WRITE_BATCH


def test_recovery_replay_rotation_is_pinned():
    observed, rotated = _run_recover()
    assert rotated, "replay never rotated a MemTable"
    assert observed == PIN_RECOVER


def test_follower_replay_over_inflight_immutable_is_pinned():
    observed, over_inflight = _run_group()
    assert over_inflight >= 1, "no follower rotated over a flushing immutable"
    assert observed == PIN_GROUP


if __name__ == "__main__":  # print the literal tables
    import pprint

    print("PINS = {")
    for label in CASES:
        row = pprint.pformat(_run_case(label)[0], width=84, indent=8)
        print(f"    {label!r}: (\n {row[1:-1]},\n    ),")
    print("}")
    for name, run in (
        ("PIN_WRITE_BATCH", _run_write_batch),
        ("PIN_RECOVER", _run_recover),
        ("PIN_GROUP", _run_group),
    ):
        print(f"{name} = " + pprint.pformat(run()[0], width=88))
