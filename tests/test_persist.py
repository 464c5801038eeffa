"""Unit tests for arenas, WAL, and crash injection."""

import pytest

from repro.mem.device import Device
from repro.mem.profiles import OPTANE_NVM_PROFILE
from repro.persist.arena import Arena
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.persist.wal import RECORD_HEADER_BYTES, WriteAheadLog
from repro.sim.clock import SimClock
from tests.support.probes import (
    last_seq,
    last_synced_seq,
    live_bytes,
    pending_count,
    tear_tail,
)


@pytest.fixture
def nvm():
    return Device(OPTANE_NVM_PROFILE, SimClock())


# ----------------------------------------------------------------- arenas


def test_arena_allocates_on_creation(nvm):
    Arena(nvm, 1000)
    assert nvm.bytes_in_use == 1000


def test_arena_release_is_idempotent(nvm):
    arena = Arena(nvm, 1000)
    assert arena.release() == 1000
    assert arena.release() == 0
    assert nvm.bytes_in_use == 0


def test_arena_grow_and_shrink(nvm):
    arena = Arena(nvm, 100)
    arena.grow(50)
    assert arena.size == 150
    assert nvm.bytes_in_use == 150
    arena.shrink(120)
    assert arena.size == 30
    assert nvm.bytes_in_use == 30


def test_arena_shrink_beyond_size_rejected(nvm):
    arena = Arena(nvm, 100)
    with pytest.raises(ValueError):
        arena.shrink(101)


def test_arena_operations_after_release_rejected(nvm):
    arena = Arena(nvm, 100)
    arena.release()
    with pytest.raises(ValueError):
        arena.grow(1)
    with pytest.raises(ValueError):
        arena.shrink(1)


def test_arena_negative_size_rejected(nvm):
    with pytest.raises(ValueError):
        Arena(nvm, -1)


# -------------------------------------------------------------------- WAL


def test_wal_append_charges_device_and_space(nvm):
    wal = WriteAheadLog(nvm)
    seconds = wal.append(1, b"key", b"value", 5)
    expected = RECORD_HEADER_BYTES + 3 + 5
    assert seconds > 0
    assert nvm.bytes_written == expected
    assert live_bytes(wal) == expected
    assert wal.record_count == 1


def test_wal_frame_enters_usage_at_the_clocks_time(nvm):
    # Appended at t=1 and held to t=2: the frame occupied half the run.
    wal = WriteAheadLog(nvm)
    nvm.clock.advance(1.0)
    wal.append(1, b"key", b"value", 5)
    nvm.clock.advance(1.0)
    frame = RECORD_HEADER_BYTES + 3 + 5
    assert nvm.average_usage() == pytest.approx(frame / 2)
    wal.truncate_through(1)
    nvm.clock.advance(2.0)
    assert nvm.average_usage() == pytest.approx(frame / 4)


def test_wal_replay_in_order(nvm):
    wal = WriteAheadLog(nvm)
    for i in range(5):
        wal.append(i + 1, b"k%d" % i, b"v", 1)
    assert [r.seq for r in wal.replay()] == [1, 2, 3, 4, 5]


def test_wal_truncate_through(nvm):
    wal = WriteAheadLog(nvm)
    for i in range(5):
        wal.append(i + 1, b"k%d" % i, b"v", 1)
    freed = wal.truncate_through(3)
    assert freed > 0
    assert [r.seq for r in wal.replay()] == [4, 5]
    assert nvm.bytes_in_use == live_bytes(wal)


def test_wal_torn_tail_stops_replay(nvm):
    wal = WriteAheadLog(nvm)
    for i in range(4):
        wal.append(i + 1, b"k%d" % i, b"v", 1)
    tear_tail(wal, 2)
    assert [r.seq for r in wal.replay()] == [1, 2]
    assert last_seq(wal) == 2


def test_wal_last_seq_empty(nvm):
    assert last_seq(WriteAheadLog(nvm)) is None


# ------------------------------------------------------------------ crash


def test_unarmed_crash_point_is_noop():
    injector = CrashInjector()
    injector.reach("flush.after_copy")
    assert injector.hits("flush.after_copy") == 1


def test_armed_point_fires_on_nth_hit():
    injector = CrashInjector()
    injector.arm("p", after_hits=3)
    injector.reach("p")
    injector.reach("p")
    with pytest.raises(SimulatedCrash) as exc:
        injector.reach("p")
    assert exc.value.point == "p"


def test_crash_point_is_single_shot():
    injector = CrashInjector()
    injector.arm("p")
    with pytest.raises(SimulatedCrash):
        injector.reach("p")
    injector.reach("p")  # does not fire again


def test_disarm():
    injector = CrashInjector()
    injector.arm("p")
    injector.disarm("p")
    injector.reach("p")
    injector.arm("a")
    injector.arm("b")
    injector.disarm()
    injector.reach("a")
    injector.reach("b")


def test_arm_validation():
    with pytest.raises(ValueError):
        CrashInjector().arm("p", after_hits=0)


def test_disarm_none_clears_every_point_but_keeps_hit_counts():
    injector = CrashInjector()
    injector.arm("a")
    injector.arm("b", after_hits=2)
    injector.reach("b")  # one hit below the trigger
    injector.disarm(None)
    injector.reach("a")
    injector.reach("b")  # would have fired at hit 2 if still armed
    assert injector.hits("a") == 1
    assert injector.hits("b") == 2


def test_rearm_after_fire_counts_cumulative_hits():
    injector = CrashInjector()
    injector.arm("p")
    with pytest.raises(SimulatedCrash):
        injector.reach("p")
    # Hit counts are cumulative across re-arms: the trigger is "fire on
    # the Nth total hit", so a re-arm must aim past the hits already
    # taken.  Two hits from now means after_hits = hits + 2.
    injector.arm("p", after_hits=injector.hits("p") + 2)
    injector.reach("p")  # hit 2 of 3: survives
    with pytest.raises(SimulatedCrash):
        injector.reach("p")  # hit 3: fires
    injector.reach("p")  # single-shot again after firing


def test_rearm_below_current_hits_fires_on_next_reach():
    injector = CrashInjector()
    for __ in range(5):
        injector.reach("p")
    injector.arm("p", after_hits=3)  # already past the threshold
    with pytest.raises(SimulatedCrash):
        injector.reach("p")


def _drive_until_crash(store, n=4000):
    from repro.kvstore.values import SizedValue

    try:
        for i in range(n):
            store.put(b"key%06d" % (i % 300), SizedValue(i, 512))
    except SimulatedCrash as crash:
        return crash
    return None


def test_crash_point_fires_from_inside_executor_job():
    """``flush.after_copy`` is reached inside the flush job's completion
    callback, which the executor runs when simulated time passes the job
    deadline -- the crash must propagate out of the store's settle."""
    from repro.core import MioDB, MioOptions
    from repro.mem.system import HybridMemorySystem

    injector = CrashInjector()
    injector.arm("flush.after_copy")
    store = MioDB(
        HybridMemorySystem(),
        MioOptions(memtable_bytes=4 * (1 << 10), num_levels=3),
        crash_injector=injector,
    )
    crash = _drive_until_crash(store)
    assert crash is not None and crash.point == "flush.after_copy"
    assert injector.hits("flush.after_copy") == 1


def test_rearm_sequencing_across_executor_jobs():
    """Fire one flush crash, recover, re-arm a *different* flush point on
    the recovered store, and verify it fires too -- the injector's state
    machine survives the crash/recover cycle."""
    from repro.core import MioDB, MioOptions, recover
    from repro.mem.system import HybridMemorySystem

    injector = CrashInjector()
    injector.arm("flush.after_copy")
    store = MioDB(
        HybridMemorySystem(),
        MioOptions(memtable_bytes=4 * (1 << 10), num_levels=3),
        crash_injector=injector,
    )
    crash = _drive_until_crash(store)
    assert crash is not None
    recovered, __ = recover(store)
    injector.arm(
        "flush.after_swizzle", after_hits=injector.hits("flush.after_swizzle") + 1
    )
    crash = _drive_until_crash(recovered)
    assert crash is not None and crash.point == "flush.after_swizzle"


def test_rearm_resets_pending_hit_count():
    """Regression: ``arm()`` aims at *cumulative* hits, so re-arming a
    point that had already taken hits below its old threshold fired
    earlier than intended on reuse.  ``rearm()`` zeroes the pending
    count first -- chaos schedules reuse one injector across rounds."""
    injector = CrashInjector()
    injector.arm("p", after_hits=2)
    injector.reach("p")  # hit 1 of 2: pending
    injector.rearm("p", after_hits=2)
    injector.reach("p")  # hit 1 of 2 again: must survive
    with pytest.raises(SimulatedCrash):
        injector.reach("p")


def test_rearm_after_fire_is_fresh_one_shot():
    injector = CrashInjector()
    injector.arm("p")
    with pytest.raises(SimulatedCrash):
        injector.reach("p")
    injector.rearm("p")
    with pytest.raises(SimulatedCrash):
        injector.reach("p")
    assert injector.hits("p") == 1  # counts restarted from zero


def test_rearm_validation():
    with pytest.raises(ValueError):
        CrashInjector().rearm("p", after_hits=0)


def test_the_default_injector_cannot_be_armed():
    """Stores and replica groups built without an injector share the
    default one, so arming it would arm every one of them: it refuses,
    and a store that was never armed keeps writing."""
    from repro.bench.factory import make_store
    from repro.kvstore.values import SizedValue
    from tests.support.groups import build_group

    a, __ = make_store("miodb")
    b, __ = make_store("leveldb")
    with pytest.raises(TypeError, match="pass a CrashInjector"):
        a.crash.arm("put.after_wal", 1)
    with pytest.raises(TypeError, match="pass a CrashInjector"):
        a.crash.rearm("put.after_wal", 1)
    with pytest.raises(TypeError, match="pass a CrashInjector"):
        build_group("miodb").crash.arm("repl.put")
    b.put(b"key", SizedValue(1, 64))
    assert b.get(b"key")[0] == SizedValue(1, 64)


@pytest.mark.parametrize("point", ["put.after_wal", "repl.put", "repl.ship", "repl.apply"])
def test_an_armed_injector_fires_at_every_skipped_crash_point(point):
    """The write path skips these points' calls only for the default
    injector: an armed one still fires at each of them."""
    from repro.kvstore.values import SizedValue
    from repro.replication import ReplicationConfig
    from tests.support.groups import build_group

    injector = CrashInjector()
    injector.arm(point, 3)
    group = build_group("miodb", config=ReplicationConfig(followers=2))
    if point == "put.after_wal":
        group.members[group.leader_idx].store.crash = injector
    else:
        group.crash = injector
    with pytest.raises(SimulatedCrash, match=point):
        for i in range(10):
            group.put(b"key%d" % i, SizedValue(i, 64))
    assert injector.hits(point) == 3


# --------------------------------------------------- WAL fsync policies


def test_parse_fsync_policy():
    from repro.persist.wal import parse_fsync_policy

    assert parse_fsync_policy("sync") == ("sync", 0.0)
    assert parse_fsync_policy("batch:8") == ("batch", 8.0)
    assert parse_fsync_policy("interval:0.001") == ("interval", 0.001)
    for bad in ("batch", "batch:0", "interval:-1", "fsync", "batch:x"):
        with pytest.raises(ValueError):
            parse_fsync_policy(bad)


def test_batch_fsync_groups_device_writes(nvm):
    wal = WriteAheadLog(nvm, fsync_policy="batch:3")
    assert wal.append(1, b"a", b"v", 1) == 0.0
    assert wal.append(2, b"b", b"v", 1) == 0.0
    assert pending_count(wal) == 2
    assert nvm.bytes_written == 0
    cost = wal.append(3, b"c", b"v", 1)  # third buffered record: group commit
    assert cost > 0.0
    assert pending_count(wal) == 0
    assert nvm.bytes_written == 3 * (RECORD_HEADER_BYTES + 1 + 1)
    assert last_synced_seq(wal) == 3


def test_unsynced_records_do_not_survive_a_crash(nvm):
    wal = WriteAheadLog(nvm, fsync_policy="batch:4")
    wal.append(1, b"a", b"v", 1)
    wal.append(2, b"b", b"v", 1)
    wal.sync()
    wal.append(3, b"c", b"v", 1)  # buffered, never synced
    assert [r.seq for r in wal.replay()] == [1, 2]  # replay skips unsynced
    assert [r.seq for r in wal.truncate_to_replay()] == [1, 2]
    assert [r.seq for r in wal.replay()] == [1, 2]
    assert wal.record_count == 2


def test_interval_fsync_follows_the_clock(nvm):
    clock = nvm.clock
    wal = WriteAheadLog(nvm, fsync_policy="interval:0.001")
    assert wal.append(1, b"a", b"v", 1) == 0.0
    clock.advance(0.0005)
    assert wal.append(2, b"b", b"v", 1) == 0.0  # window still open
    clock.advance(0.0006)
    assert wal.append(3, b"c", b"v", 1) > 0.0  # window expired: commit
    assert pending_count(wal) == 0
    assert last_synced_seq(wal) == 3


def test_truncate_prunes_unsynced_pending(nvm):
    wal = WriteAheadLog(nvm, fsync_policy="batch:10")
    wal.append(1, b"a", b"v", 1)
    wal.sync()
    wal.append(2, b"b", b"v", 1)
    wal.truncate_through(2)  # covers the buffered record too
    assert pending_count(wal) == 0
    assert wal.record_count == 0


def test_records_since_is_a_shipping_cursor(nvm):
    wal = WriteAheadLog(nvm)
    for i in range(5):
        wal.append(i + 1, b"k%d" % i, b"v", 1)
    assert [r.seq for r in wal.records_since(0)] == [1, 2, 3, 4, 5]
    assert [r.seq for r in wal.records_since(3)] == [4, 5]
    assert wal.records_since(5) == []
