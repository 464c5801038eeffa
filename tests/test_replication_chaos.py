"""The seeded chaos harness behind ``repro chaos``: determinism, follower
reads, traced timelines.  Whether a failover loses an acked write is the
model checker's ``kill_replica`` rule (``tests/test_model_checker.py``)."""

import json

import pytest

from repro.bench.config import BenchScale
from repro.kvstore.values import SizedValue
from repro.obs.export import document_json
from repro.replication import (
    ACK_QUORUM,
    READ_FOLLOWER_EVENTUAL,
    READ_FOLLOWER_RYW,
    ChaosSchedule,
    ReplicationConfig,
    run_chaos,
)
from repro.replication.chaos import KILLS, _oracle_state
from repro.workloads.keys import key_for
from tests.support.groups import build_group

pytestmark = pytest.mark.chaos_smoke

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=256)


def run(store_name, seed, **kwargs):
    kwargs.setdefault("ops", 300)
    return run_chaos(store_name, seed=seed, scale=SCALE, **kwargs)


@pytest.mark.parametrize(
    "read_policy", [READ_FOLLOWER_EVENTUAL, READ_FOLLOWER_RYW]
)
def test_chaos_with_follower_reads(read_policy):
    report = run("miodb", 11, read_policy=read_policy)
    assert report["ok"], report["checks"]


def test_chaos_reports_are_byte_identical_across_runs():
    first = document_json(run("miodb", 7))
    second = document_json(run("miodb", 7))
    assert first == second


def test_chaos_reports_differ_across_seeds():
    assert document_json(run("miodb", 3)) != document_json(run("miodb", 7))


def test_chaos_schedule_generation_is_deterministic():
    sched_a = ChaosSchedule.generate(seed=5, n_groups=2)
    sched_b = ChaosSchedule.generate(seed=5, n_groups=2)
    assert [
        (e.at, e.group, e.target) for e in sched_a.events
    ] == [(e.at, e.group, e.target) for e in sched_b.events]
    assert len({e.at for e in sched_a.events}) == KILLS  # distinct kill points


def test_quorum_acks_survive_every_fired_kill():
    report = run("matrixkv", 13, ack_policy=ACK_QUORUM, ops=400)
    assert report["acked_lost"] == 0
    assert report["ok"], report["checks"]


def test_the_oracle_replays_a_logged_delete_as_a_delete():
    # A delete's WAL record carries the TOMBSTONE sentinel, not None:
    # replayed as a value it could not even be sized.
    group = build_group("miodb", SCALE, config=ReplicationConfig(followers=2))
    group.put(key_for(1), SizedValue(1, 256))
    group.put(key_for(2), SizedValue(2, 256))
    group.delete(key_for(1))
    state = _oracle_state(group, "miodb", SCALE)
    assert [(key, value.tag) for key, value in state.items()] == [(key_for(2), 2)]


# ------------------------------------------------------------ traced chaos


def test_traced_chaos_report_matches_untraced_modulo_timelines():
    plain = run("miodb", 7)
    traces = []
    traced = run("miodb", 7, trace=traces.append)
    assert len(traces) == 1 and json.loads(traces[0])["traceEvents"]
    for doc in traced["groups"]:
        assert "failover_timeline" in doc
        doc.pop("failover_timeline")
    assert document_json(traced) == document_json(plain)


def test_traced_chaos_is_byte_identical_across_runs():
    traces = []
    first = run("miodb", 7, trace=traces.append)
    second = run("miodb", 7, trace=traces.append)
    assert document_json(first) == document_json(second)
    assert traces[0] == traces[1]


def test_traced_chaos_timelines_resolve_leader_kills():
    report = run("miodb", 7, trace=lambda text: None)
    leader_kills = [f for f in report["fired"] if f["target"] == "leader"]
    timelines = [
        tl for doc in report["groups"]
        for tl in doc["failover_timeline"]
        if tl["role"] == "leader"
    ]
    assert len(timelines) >= len(leader_kills)
    for tl in timelines:
        if tl["repoint_t_s"] is not None:
            assert tl["winner"] is not None
            assert tl["duration_s"] > 0.0
