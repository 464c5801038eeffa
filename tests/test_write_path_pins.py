"""Pins on the write path: WAL -> MemTable -> rotate -> stall -> flush.

Every row drives one store configuration through fill -> overwrite ->
delete at a MemTable small enough that the branch named in ``GUARDS``
fires, and compares the simulated clock, the stats registry, the latency
samples, the retained WAL and the executor's worker list against values
recorded before the write buffer was factored out of the engines.
Nothing here is a tolerance: a refactor of the write path is correct
iff none of these move.
"""

import hashlib

import pytest

from repro.baselines import lsm
from repro.bench.config import BenchScale
from repro.bench.factory import make_store
from repro.core import MioDB, MioOptions, recover
from repro.kvstore.batch import WriteBatch
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.replication import ReplicationConfig, group as replica_group
from tests.support.groups import build_group

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, nvm_buffer_bytes=128 * KB, value_size=512)

#: Rows run with a 1 us slowdown delay, to let L0 / the container fill.
FAST = {
    "matrixkv-container-stop", "matrixkv-ssd", "novelsm-nvm-chain",
    "leveldb-l0-stop", "leveldb-ssd",
}

#: label -> (store name, ssd, value size, option overrides, stall causes
#: that must appear in the run's trace -- the vacuity guard: a row whose
#: branch never fired pins nothing).
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
        "matrixkv", False, 4096, {}, ("l0-slowdown", "l0-stop", "memtable-full"),
    ),
    "matrixkv-ssd": (
        "matrixkv", True, 512, {"container_bytes": 32 * KB},
        ("l0-slowdown", "l0-stop"),
    ),
    "novelsm": ("novelsm", False, 512, {}, ("l0-slowdown", "l0-stop")),
    "novelsm-nvm-chain": (
        "novelsm", True, 512, {"nvm_memtable_bytes": 16 * KB},
        ("l0-slowdown", "l0-stop", "memtable-full"),
    ),
    "novelsm-hier": ("novelsm-hier", False, 512, {}, ("l0-slowdown", "memtable-full")),
    "novelsm-nosst": ("novelsm-nosst", False, 512, {}, ()),
    "leveldb": ("leveldb", False, 512, {}, ("l0-slowdown", "memtable-full")),
    "leveldb-l0-stop": (
        "leveldb", False, 512, {}, ("l0-slowdown", "l0-stop", "memtable-full"),
    ),
    "leveldb-ssd": ("leveldb", True, 512, {}, ("l0-slowdown", "l0-stop")),
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
    """The pinned fields of one store on one machine."""
    latency = system.latency
    samples = [(kind, list(latency.samples_since(kind, 0))) for kind in latency.kinds()]
    wal = getattr(store, "wal", None)
    return {
        "clock": system.clock.now,
        "stats": _sha(sorted(system.stats.snapshot().items())),
        "latency": _sha(samples),
        "wal_records": wal.record_count if wal is not None else None,
        # in creation order
        "workers": ",".join(w.name for w in system.executor.workers),
    }


def _stall_causes(recorder):
    return {
        e.args["cause"] for e in recorder.events
        if isinstance(e.args, dict) and "cause" in e.args
    }


def _run_case(label):
    name, ssd, value, overrides, __ = CASES[label]
    store, system = make_store(name, SCALE, ssd=ssd, **overrides)
    recorder = system.attach_tracing()  # clock-neutral; only feeds the guard
    with pytest.MonkeyPatch.context() as patch:
        if label in FAST:
            patch.setattr(lsm, "SLOWDOWN_DELAY_S", 1e-6)
        _drive(store, value=value)
        mid = system.clock.now
        store.quiesce()
    return dict(_observe(store, system), mid_clock=mid), _stall_causes(recorder)


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
    mid = system.clock.now
    store.quiesce()
    observed = dict(_observe(store, system), mid_clock=mid)
    return observed, rotations, _stall_causes(recorder)


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
    observed = dict(_observe(recovered, system), replay_s=seconds)
    return dict(observed, wal_retained=retained), rotated


def _run_group(monkeypatch):
    """2 followers, 8 KB MemTables, big ship batches, leader-only acks:
    followers replay far behind the leader and rotate over an immutable
    MemTable whose flush is still in flight."""
    monkeypatch.setattr(replica_group, "SHIP_BATCH", 64)
    group = build_group(
        "miodb", BenchScale(memtable_bytes=8 * KB),
        ReplicationConfig(followers=2, ack_policy="leader"),
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
    mid = group.clock.now
    group.quiesce()
    observed = {
        "mid_clock": mid,
        "stats": _sha(sorted(group.stats.snapshot().items())),
        "snapshot": _sha(sorted(group.snapshot().items(), key=repr)),
        "members": [_observe(m.store, m.system) for m in group.members],
    }
    return observed, over_inflight[0]


@pytest.mark.parametrize("label", sorted(CASES))
def test_store_write_path_is_pinned(label, pin):
    observed, causes = _run_case(label)
    assert causes == set(CASES[label][4]), f"{label}: stall branches moved"
    pin(f"write-path/{label}", observed)


def test_every_stall_branch_has_a_row():
    fired = {}
    for name, __, __, __, causes in CASES.values():
        fired.setdefault(name, set()).update(causes)
    l0_engine = {"l0-slowdown", "l0-stop", "memtable-full"}
    assert fired["leveldb"] == fired["matrixkv"] == fired["novelsm"] == l0_engine
    assert fired["miodb"] == {"memtable-full", "buffer-cap"}
    assert fired["slmdb"] == fired["novelsm-hier"] - {"l0-slowdown"} == {"memtable-full"}


def test_write_batch_spanning_rotations_is_pinned(pin):
    observed, rotations, causes = _run_write_batch()
    assert rotations >= 30
    assert causes == {"memtable-full"}  # a batch waited on the in-flight flush
    pin("write-path/write-batch", observed)


def test_recovery_replay_rotation_is_pinned(pin):
    observed, rotated = _run_recover()
    assert rotated, "replay never rotated a MemTable"
    pin("write-path/recover", observed)


def test_follower_replay_over_inflight_immutable_is_pinned(pin, monkeypatch):
    observed, over_inflight = _run_group(monkeypatch)
    assert over_inflight >= 1, "no follower rotated over a flushing immutable"
    pin("write-path/follower-group", observed)
