"""Tests for replica groups: shipping, acks, reads, failover."""

import pytest

from repro.bench.config import BenchScale
from repro.bench.factory import make_store
from repro.kvstore.values import SizedValue
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.replication import (
    ACK_ALL,
    ACK_LEADER,
    ACK_QUORUM,
    READ_FOLLOWER_EVENTUAL,
    READ_FOLLOWER_RYW,
    ReplicaGroup,
    ReplicationConfig,
    Session,
)
from repro.replication.group import SHIP_BATCH
from repro.sim.executor import advance
from repro.workloads.keys import key_for
from tests.support.groups import build_group
from tests.support.probes import last_seq

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=256)


def make_group(followers=2, store_name="miodb", **config_kwargs):
    config = ReplicationConfig(followers=followers, **config_kwargs)
    return build_group(store_name, SCALE, config=config)


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ValueError):
        ReplicationConfig(followers=-1)
    with pytest.raises(ValueError):
        ReplicationConfig(ack_policy="paxos")
    with pytest.raises(ValueError):
        ReplicationConfig(read_policy="nearest")


def test_quorum_math():
    assert ReplicationConfig(followers=0).quorum_size == 1
    assert ReplicationConfig(followers=2).quorum_size == 2
    assert ReplicationConfig(followers=4).quorum_size == 3
    assert ReplicationConfig(followers=2, ack_policy=ACK_LEADER).needed_follower_acks() == 0
    assert ReplicationConfig(followers=2, ack_policy=ACK_QUORUM).needed_follower_acks() == 1
    assert ReplicationConfig(followers=2, ack_policy=ACK_ALL).needed_follower_acks() == 2


def test_unreplicable_stores_are_rejected():
    # Replication ships the leader's WAL and replays it through
    # BufferedStore.stage_logged: novelsm-nosst has neither, and flat
    # novelsm acknowledges writes the WAL never sees.
    with pytest.raises(ValueError, match="'novelsm-nosst' cannot be replicated: it has no WAL"):
        make_group(followers=1, store_name="novelsm-nosst")
    with pytest.raises(
        ValueError,
        match="'novelsm' cannot be replicated: flat NoveLSM acknowledges "
        "NVM-direct writes that never enter the WAL the group ships",
    ):
        make_group(followers=1, store_name="novelsm")


# ------------------------------------------------------- shipping and acks


def test_members_and_links_read_the_groups_clock():
    group = make_group(followers=2)
    group.crash_replica(1)
    group.restart_replica(1)
    for member in group.members:
        assert member.system.clock is group.clock
        assert member.link.clock is group.clock


def test_members_on_separate_clocks_are_rejected():
    # make_store builds each member a machine with a clock of its own.
    with pytest.raises(ValueError, match="share one clock"):
        ReplicaGroup(0, lambda rid: make_store("miodb", SCALE))


def test_followers_converge_after_catch_up():
    group = make_group(followers=2)
    for i in range(200):
        group.put(key_for(i), SizedValue(i, 256))
    group.delete(key_for(3))
    group.catch_up()
    group.quiesce()
    assert group.lag() == 0
    leader_state = dict(group.items())
    assert key_for(3) not in leader_state
    for follower in group.alive_followers():
        assert dict(follower.store.items()) == leader_state


def test_ack_quorum_bounds_follower_lag():
    group = make_group(followers=2, ack_policy=ACK_QUORUM)
    bound = 2 * SHIP_BATCH
    for i in range(150):
        group.put(key_for(i), SizedValue(i, 256))
        durable = sorted(f.durable_lsn for f in group.alive_followers())
        # Quorum ack: at least one follower holds the write durably.
        assert durable[-1] >= len(group.log)
        assert group.lag() <= bound
    assert group.stats.get("repl.lag_peak") <= bound


def test_ack_all_waits_for_every_follower():
    group = make_group(followers=2, ack_policy=ACK_ALL)
    for i in range(60):
        group.put(key_for(i), SizedValue(i, 256))
        assert all(
            f.durable_lsn >= len(group.log) for f in group.alive_followers()
        )


def test_ack_leader_never_waits():
    group = make_group(followers=2, ack_policy=ACK_LEADER)
    for i in range(60):
        group.put(key_for(i), SizedValue(i, 256))
    assert "repl.ack_wait_s" not in group.stats
    group.catch_up()
    assert group.lag() == 0


def test_k0_group_is_fingerprint_identical_to_flat_store():
    group = make_group(followers=0, ack_policy=ACK_LEADER)
    store, system = make_store("miodb", SCALE)
    for i in range(200):
        group.put(key_for(i), SizedValue(i, 256))
        store.put(key_for(i), SizedValue(i, 256))
    for i in range(200):
        group.get(key_for(i))
        store.get(key_for(i))
    group.quiesce()
    store.quiesce()
    assert group.clock.now == system.clock.now


def test_a_replicated_put_submits_its_four_jobs_in_order(monkeypatch):
    """Every put on a K=2 quorum-ack group submits exactly four model
    jobs -- ship to r1, ship to r2, apply on r1, apply on r2 -- and
    nothing in the write path may merge or reorder them.  Flush and
    compaction jobs may interleave, so only ``repl-*`` names count."""
    from repro.sim.executor import Executor

    submitted = []
    submit = Executor.submit

    def spy(self, worker, duration, callback=None, name="job", meta=None):
        job = submit(self, worker, duration, callback, name=name, meta=meta)
        submitted.append(job)
        return job

    monkeypatch.setattr(Executor, "submit", spy)
    group = make_group(followers=2, ack_policy=ACK_QUORUM)
    for i in range(50):
        del submitted[:]
        group.put(key_for(i), SizedValue(i, 256))
        jobs = [job for job in submitted if job.name.startswith("repl-")]
        assert [job.name for job in jobs] == [
            "repl-ship-g0-r1", "repl-ship-g0-r2",
            "repl-apply-g0-r1", "repl-apply-g0-r2",
        ], i
        assert all(job.start <= job.end for job in jobs)


def test_an_ack_wait_with_no_pending_work_names_what_it_awaited(monkeypatch):
    from repro.replication import group as group_module

    group = make_group(followers=2, ack_policy=ACK_ALL)
    group.put(key_for(0), SizedValue(0, 256))
    monkeypatch.setattr(group_module, "advance", lambda executors: False)
    monkeypatch.setattr(group, "_pump_all", lambda: None)
    lsn = len(group.log) + 1
    with pytest.raises(RuntimeError) as raised:
        group.put(key_for(1), SizedValue(1, 256))
    assert str(raised.value) == (
        f"replica group 0 stalled while awaiting 2 ack(s) for lsn {lsn}: "
        "no pending work on any live member"
    )


# ----------------------------------------------------------------- failover


def test_leader_kill_elects_most_caught_up_follower():
    group = make_group(followers=2)
    for i in range(100):
        group.put(key_for(i), SizedValue(i, 256))
    group.catch_up()  # both followers equally caught up
    group.crash_replica(0)
    assert group.leader_idx is None and group.election_pending
    # The next write blocks through the election; lowest id breaks the tie.
    group.put(key_for(100), SizedValue(100, 256))
    assert group.leader_idx == 1
    assert group.leader is group.members[1]
    assert group.elections == 1
    assert group.stats.get("repl.acked_lost") == 0.0
    group.catch_up()
    value, __ = group.get(key_for(42))
    assert value is not None and value.tag == 42


def test_a_write_after_a_truncating_election_continues_the_log():
    # The new leader's next seq and every follower's WAL tail follow the
    # group log, which the election truncates to the winner's durable
    # prefix: the frames the dead leader logged past it are gone.
    group = make_group(followers=2, ack_policy=ACK_LEADER)
    for i in range(10):
        group.put(key_for(i), SizedValue(i, 256))
    group.catch_up()
    winner, laggard = group.members[1], group.members[2]
    # Hold the laggard's link busy, so its ships queue while the winner's land.
    laggard.system.executor.submit(laggard.ship_worker, 1.0)
    for i in range(10, 20):
        group.put(key_for(i), SizedValue(i, 256))
    while winner.durable_lsn <= 10:
        assert advance(group.executors)
    assert laggard.durable_lsn == 10 < winner.durable_lsn < len(group.log)

    def assert_wals_end_at_their_durable_lsn():
        for follower in group.alive_followers():
            lsn = follower.durable_lsn
            assert last_seq(follower.store.wal) == group.log[lsn - 1].seq

    group.crash_replica(0)
    assert len(group.log) == winner.durable_lsn
    assert group.stats.get("repl.truncated_records") > 0
    assert_wals_end_at_their_durable_lsn()
    truncated_last = group.log[-1].seq
    group.put(key_for(20), SizedValue(20, 256))
    assert group.leader is winner
    assert group.log[-1].seq == truncated_last + 1
    assert_wals_end_at_their_durable_lsn()
    group.catch_up()
    assert_wals_end_at_their_durable_lsn()
    assert dict(laggard.store.items()) == dict(group.items())


def test_failover_is_deterministic():
    def run():
        group = make_group(followers=2)
        for i in range(80):
            group.put(key_for(i), SizedValue(i, 256))
        group.crash_replica(0)
        for i in range(80, 120):
            group.put(key_for(i), SizedValue(i, 256))
        group.catch_up()
        group.quiesce()
        return group.leader_idx, group.clock.now, list(group.history)

    leader_a, clock_a, history_a = run()
    leader_b, clock_b, history_b = run()
    assert leader_a == leader_b
    assert clock_a == clock_b
    assert history_a == history_b


def test_crash_injector_kills_leader_mid_run():
    injector = CrashInjector()
    config = ReplicationConfig(followers=2)
    group = build_group(
        "miodb", SCALE, config=config, crash_injector=injector
    )
    injector.arm("repl.put", after_hits=50)
    crashed_at = None
    for i in range(120):
        try:
            group.put(key_for(i), SizedValue(i, 256))
        except SimulatedCrash as crash:
            assert crash.point == "repl.put"
            crashed_at = i
            group.crash_replica(group.leader_idx)
            group.put(key_for(i), SizedValue(i, 256))  # blocks, then serves
    assert crashed_at is not None
    assert group.leader_idx == 1
    group.catch_up()
    leader_state = dict(group.items())
    for follower in group.alive_followers():
        assert dict(follower.store.items()) == leader_state


def test_election_blocked_below_majority_until_restart():
    group = make_group(followers=2)
    for i in range(40):
        group.put(key_for(i), SizedValue(i, 256))
    group.catch_up()
    group.crash_replica(1)
    group.crash_replica(0)  # leader down, one live member < quorum of 2
    assert group.leader_idx is None and not group.election_pending
    assert any(e["event"] == "election-blocked" for e in group.history)
    group.restart_replica(1)
    assert group.election_pending
    group.put(key_for(40), SizedValue(40, 256))
    assert group.leader_idx is not None
    group.catch_up()
    assert dict(group.items())[key_for(40)].tag == 40


def test_restarted_follower_rebuilds_from_the_group_log():
    group = make_group(followers=2)
    for i in range(60):
        group.put(key_for(i), SizedValue(i, 256))
    group.crash_replica(2)
    for i in range(60, 120):
        group.put(key_for(i), SizedValue(i, 256))
    group.restart_replica(2)
    assert group.members[2].durable_lsn == 0  # fresh replacement node
    group.catch_up()
    assert dict(group.members[2].store.items()) == dict(group.items())


def test_k0_replacement_bootstraps_before_it_stands_for_election():
    # A blank replacement that won at once truncated the group log to
    # its own durable LSN 0 and lost every acked write.
    group = make_group(followers=0)
    for i in range(60):
        group.put(key_for(i), SizedValue(i, 256))
    group.crash_replica(0)
    group.restart_replica(0)
    assert group.leader_idx is None and not group.election_pending
    assert [v.tag for __, v in group.items()] == list(range(60))
    assert group.stats.get("repl.acked_lost") == 0.0


# --------------------------------------------------------------- read paths


def test_follower_eventual_reads_round_robin():
    group = make_group(
        followers=2, read_policy=READ_FOLLOWER_EVENTUAL, ack_policy=ACK_ALL
    )
    for i in range(80):
        group.put(key_for(i), SizedValue(i, 256))
    group.catch_up()
    for i in range(80):
        value, __ = group.get(key_for(i))
        assert value is not None and value.tag == i


def test_follower_ryw_sees_own_write_immediately():
    group = make_group(followers=2, read_policy=READ_FOLLOWER_RYW)
    session = Session()
    for i in range(50):
        group.put(key_for(i), SizedValue(i, 256), session=session)
        value, __ = group.get(key_for(i), session=session)
        assert value is not None and value.tag == i, i


# ------------------------------------------------------------ observability


def test_group_snapshot_reports_roles_and_lag():
    group = make_group(followers=2)
    for i in range(30):
        group.put(key_for(i), SizedValue(i, 256))
    doc = group.snapshot()
    assert doc["leader"] == 0
    assert doc["log_lsn"] == 31 or doc["log_lsn"] == 30
    roles = [m["role"] for m in doc["members"]]
    assert roles.count("leader") == 1
    assert all(m["lag"] >= 0 for m in doc["members"])
