"""Property-based tests for WAL durability semantics."""

from hypothesis import given, settings, strategies as st

from repro.mem.device import Device
from repro.mem.profiles import OPTANE_NVM_PROFILE
from repro.persist.wal import WriteAheadLog
from repro.sim.clock import SimClock
from tests.support.oracles import truncate_through_by_walk
from tests.support.probes import live_bytes, tear_tail

records = st.lists(
    st.tuples(st.binary(min_size=1, max_size=8), st.binary(max_size=16)),
    max_size=60,
)


def make_wal(pairs, start_seq=1):
    wal = WriteAheadLog(Device(OPTANE_NVM_PROFILE, SimClock()))
    seq = start_seq
    for key, value in pairs:
        wal.append(seq, key, value, len(value))
        seq += 1
    return wal, seq


@given(records)
def test_replay_returns_everything_in_order(pairs):
    wal, __ = make_wal(pairs)
    replayed = list(wal.replay())
    assert [r.key for r in replayed] == [k for k, __v in pairs]
    assert [r.seq for r in replayed] == list(range(1, len(pairs) + 1))


@given(records, st.integers(min_value=0, max_value=70))
def test_truncate_then_replay_is_a_suffix(pairs, cut):
    wal, __ = make_wal(pairs)
    wal.truncate_through(cut)
    replayed = [r.seq for r in wal.replay()]
    expected = [s for s in range(1, len(pairs) + 1) if s > cut]
    assert replayed == expected


@given(records, st.integers(min_value=0, max_value=10))
def test_torn_tail_drops_only_the_tail(pairs, torn):
    wal, __ = make_wal(pairs)
    tear_tail(wal, torn)
    replayed = [r.seq for r in wal.replay()]
    keep = max(0, len(pairs) - torn)
    assert replayed == list(range(1, keep + 1))


@given(records, records)
def test_batch_replay_is_all_or_nothing(singles, batch_pairs):
    wal, next_seq = make_wal(singles)
    items = [
        (next_seq + i, key, value, len(value))
        for i, (key, value) in enumerate(batch_pairs)
    ]
    wal.append_batch(items)
    # intact: the full batch replays after the singles
    replayed = [r.seq for r in wal.replay()]
    assert replayed == list(range(1, next_seq + len(items)))
    # torn commit: the whole batch vanishes, singles stay
    if items:
        tear_tail(wal, 1)
        replayed = [r.seq for r in wal.replay()]
        assert replayed == list(range(1, next_seq))


@given(records)
def test_space_accounting_matches_device(pairs):
    device = Device(OPTANE_NVM_PROFILE, SimClock())
    wal = WriteAheadLog(device)
    seq = 1
    for key, value in pairs:
        wal.append(seq, key, value, len(value))
        seq += 1
    assert device.bytes_in_use == live_bytes(wal)
    wal.truncate_through(seq // 2)
    assert device.bytes_in_use == live_bytes(wal)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 3)),
            st.tuples(st.just("batch"), st.integers(1, 4)),
            st.tuples(st.just("truncate"), st.integers(0, 120)),
            st.tuples(st.just("tear"), st.integers(0, 3)),
        ),
        max_size=40,
    ),
    st.sampled_from(["sync", "batch:3"]),
    st.lists(st.integers(-1, 130), min_size=1, max_size=6),
)
def test_records_since_equals_full_log_filter(ops, policy, cursors):
    """The tail walk returns exactly what filtering every record would:
    over torn tails, group-commit-buffered records and truncated prefixes."""
    wal = WriteAheadLog(Device(OPTANE_NVM_PROFILE, SimClock()), fsync_policy=policy)
    seq = 0
    for op, arg in ops:
        if op == "append":
            seq += arg  # gaps are fine; seqs only ever ascend
            wal.append(seq, b"k%d" % seq, b"v", 1)
        elif op == "batch":
            items = [(seq + i + 1, b"b%d" % (seq + i + 1), b"v", 1) for i in range(arg)]
            seq += arg
            wal.append_batch(items)
        elif op == "truncate":
            wal.truncate_through(arg)
        else:
            tear_tail(wal, arg)
        for cursor in cursors:
            want = [r for r in wal._records if r.seq > cursor and not r.torn]
            got = wal.records_since(cursor)
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))


def _log_state(wal):
    return (
        [(r.seq, r.key, r.synced, r.torn, r.batch_id, r.commit) for r in wal._records],
        [r.seq for r in wal._pending],
        wal._window_start,
        wal.device.bytes_in_use,
    )


@settings(max_examples=200)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 3)),
            st.tuples(st.just("batch"), st.integers(1, 4)),
            st.tuples(st.just("sync"), st.just(0)),
            st.tuples(st.just("tick"), st.integers(0, 3)),
            st.tuples(st.just("truncate"), st.integers(-1, 150)),
            st.tuples(st.just("tear"), st.integers(0, 2)),
        ),
        max_size=60,
    ),
    st.sampled_from(["sync", "batch:3", "interval:2e-6"]),
)
def test_bisected_truncate_equals_the_full_walk(ops, policy):
    """Two logs fed the same appends, syncs and tears: the one cut by
    ``truncate_through`` and the one cut by the walk over every record
    keep the same records, free the same bytes and leave the device and
    the group-commit buffer in the same state."""
    logs = [
        WriteAheadLog(Device(OPTANE_NVM_PROFILE, SimClock()), fsync_policy=policy)
        for __ in range(2)
    ]
    fast, walked = logs
    seq = 0
    for op, arg in ops:
        if op == "append":
            seq += arg  # gaps are fine; seqs only ever ascend
            for wal in logs:
                wal.append(seq, b"k%d" % seq, b"v" * arg, arg)
        elif op == "batch":
            items = [(seq + i + 1, b"b%d" % (seq + i + 1), b"v", 1) for i in range(arg)]
            seq += arg
            for wal in logs:
                wal.append_batch(items)
        elif op == "sync":
            for wal in logs:
                wal.sync()
        elif op == "tick":
            for wal in logs:
                wal.device.clock.advance(arg * 1e-6)
        elif op == "tear":
            for wal in logs:
                tear_tail(wal, arg)
        else:
            assert fast.truncate_through(arg) == truncate_through_by_walk(walked, arg)
        assert _log_state(fast) == _log_state(walked)
