"""Causal replication tracing: parent links, attribution, invariance.

The ``repl.*`` events form one causal chain per replicated write --
append (group track) -> ship (per-follower, parent=append) -> durable /
apply (parent=ship) -> ack (parent = the straggler's delivering ship
span) -- and a failover chain kill -> election-blocked / truncate /
elect -> repoint.  These tests pin the chain's integrity, the exact
latency-conservation invariant for replicated ops, and the zero-overhead
contract: tracing must not move the simulated clock or any replicated
state by one bit.
"""

import pytest

from repro.bench.config import BenchScale
from repro.kvstore.values import SizedValue
from repro.obs.analyze import (
    attribute_ops,
    failover_timelines,
    follower_lag_timeline,
    replication_summary,
)
from repro.obs.events import (
    CAT_REPL_ACK,
    CAT_REPL_APPLY,
    CAT_REPL_ELECTION,
    CAT_REPL_SHIP,
)
from repro.replication import ReplicationConfig
from repro.replication.config import ELECTION_TIMEOUT_S
from repro.sim.executor import settle_due
from repro.workloads.keys import key_for
from tests.support.groups import build_group

pytestmark = pytest.mark.obs_smoke

KB = 1 << 10
SCALE = BenchScale(memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=256)


def make_group(followers=2, **config_kwargs):
    config = ReplicationConfig(followers=followers, **config_kwargs)
    return build_group("miodb", SCALE, config=config)


def traced_run(n_ops=30, followers=2, **config_kwargs):
    group = make_group(followers=followers, **config_kwargs)
    recorder = group.attach_tracing()
    for i in range(n_ops):
        group.put(key_for(i), SizedValue(i, 256))
    group.catch_up()
    return group, recorder


def by_span(events):
    return {e.args["span"]: e for e in events if e.args and "span" in e.args}


# ------------------------------------------------------------- causal chain


def test_repl_events_are_emitted_with_all_four_categories():
    __, recorder = traced_run()
    cats = {e.cat for e in recorder.events}
    assert CAT_REPL_SHIP in cats
    assert CAT_REPL_APPLY in cats
    assert CAT_REPL_ACK in cats


def test_ship_spans_parent_the_append_instants():
    __, recorder = traced_run()
    appends = by_span(
        e for e in recorder.events
        if e.cat == CAT_REPL_SHIP and e.name == "append"
    )
    ships = [e for e in recorder.events
             if e.cat == CAT_REPL_SHIP and e.name == "ship"]
    assert ships
    for ship in ships:
        parent = ship.args.get("parent")
        assert parent in appends
        # The ship batch ends at (or past) the LSN the append recorded.
        assert ship.args["lsn"] >= appends[parent].args["lsn"]


def test_durable_and_apply_parent_their_ship_span():
    __, recorder = traced_run()
    ships = by_span(
        e for e in recorder.events
        if e.cat == CAT_REPL_SHIP and e.name == "ship"
    )
    applies = [e for e in recorder.events if e.cat == CAT_REPL_APPLY]
    assert applies
    for event in applies:
        parent = event.args.get("parent")
        assert parent in ships
        # Same follower as the delivering ship.
        assert event.args["replica"] == ships[parent].args["replica"]
        assert event.track.endswith(f"r{event.args['replica']}")


def test_ack_parents_name_the_straggler_ship_span():
    __, recorder = traced_run()
    ships = by_span(
        e for e in recorder.events
        if e.cat == CAT_REPL_SHIP and e.name == "ship"
    )
    acks = [e for e in recorder.events if e.cat == CAT_REPL_ACK]
    assert acks
    for ack in acks:
        straggler = ack.args.get("straggler")
        assert straggler is not None
        parent = ack.args.get("parent")
        if parent is not None:
            assert ships[parent].args["replica"] == straggler


def test_span_ids_are_unique_and_parents_precede_children():
    __, recorder = traced_run()
    repl = [e for e in recorder.events if e.cat.startswith("repl.")]
    spans = [e.args["span"] for e in repl]
    assert len(spans) == len(set(spans))
    # Emission order respects causality: a parent span id is always
    # emitted before any event that references it.
    seen = set()
    for event in repl:
        parent = event.args.get("parent")
        if parent is not None:
            assert parent in seen
        seen.add(event.args["span"])


# -------------------------------------------------------------- attribution


def test_replicated_put_attribution_conserves_exactly():
    group, recorder = traced_run(n_ops=25)
    attributions = attribute_ops(recorder)
    assert len(attributions) == 25
    replicated = [a for a in attributions if a.repl_s]
    assert replicated, "quorum acks must show up in the decomposition"
    for attr in attributions:
        assert attr.measured_s - (attr.named_s + attr.other_s) == 0.0
        for key in attr.repl_s:
            assert key.startswith("ack:g0")


def test_ack_attribution_totals_equal_the_ack_wait_stat():
    group, recorder = traced_run(n_ops=25)
    attributions = attribute_ops(recorder)
    total = 0.0
    for attr in attributions:
        for key in sorted(attr.repl_s):
            total += attr.repl_s[key]
    assert total == pytest.approx(
        group.stats.get("repl.ack_wait_s"), abs=0.0
    )


def test_leader_only_acks_add_no_repl_component():
    __, recorder = traced_run(n_ops=10, ack_policy="leader")
    for attr in attribute_ops(recorder):
        assert attr.repl_s == {}


# --------------------------------------------------------------- invariance


def test_tracing_does_not_move_the_simulated_clock_or_state():
    def run(traced):
        group = make_group()
        if traced:
            group.attach_tracing()
        for i in range(40):
            group.put(key_for(i), SizedValue(i, 256))
        group.crash_replica(group.leader_idx)
        for i in range(40, 60):
            group.put(key_for(i), SizedValue(i, 256))
        group.catch_up()
        return group.clock.now, group.snapshot()

    assert run(traced=False) == run(traced=True)


def test_traced_runs_are_deterministic():
    def events():
        __, recorder = traced_run(n_ops=20)
        return [
            (e.track, e.name, e.cat, e.ts, e.dur, e.args)
            for e in recorder.events
        ]

    assert events() == events()


# ----------------------------------------------------- failover + timelines


def test_failover_timeline_links_kill_to_repoint():
    group = make_group()
    recorder = group.attach_tracing()
    for i in range(20):
        group.put(key_for(i), SizedValue(i, 256))
    old_leader = group.leader_idx
    group.crash_replica(old_leader)
    for i in range(20, 30):
        group.put(key_for(i), SizedValue(i, 256))
    timelines = failover_timelines(recorder)
    assert len(timelines) == 1
    tl = timelines[0]
    assert tl["replica"] == old_leader
    assert tl["role"] == "leader"
    assert tl["winner"] is not None and tl["winner"] != old_leader
    assert tl["epoch"] == 1
    # The election runs exactly one election timeout on the simulated clock.
    assert tl["elect_end_s"] - tl["elect_start_s"] == pytest.approx(
        ELECTION_TIMEOUT_S
    )
    assert tl["repoint_t_s"] >= tl["elect_end_s"]
    assert tl["duration_s"] == tl["repoint_t_s"] - tl["kill_t_s"]


def test_follower_kill_produces_no_leader_timeline():
    group = make_group()
    recorder = group.attach_tracing()
    for i in range(10):
        group.put(key_for(i), SizedValue(i, 256))
    victim = group.alive_followers()[0].replica_id
    group.crash_replica(victim)
    for i in range(10, 15):
        group.put(key_for(i), SizedValue(i, 256))
    assert failover_timelines(recorder) == []
    kills = [e for e in recorder.events
             if e.cat == CAT_REPL_ELECTION and e.name == "kill"]
    assert len(kills) == 1 and kills[0].args["replica"] == victim


def test_leader_ack_failover_truncates_the_unshipped_log():
    """Leader acks return before any ship: killing the leader loses every
    acked write, and the election truncates the log under the kill span."""
    group = build_group(
        "miodb", config=ReplicationConfig(followers=2, ack_policy="leader")
    )
    recorder = group.attach_tracing()
    for i in range(5):
        group.put(key_for(i), SizedValue(i, 256))
    group.crash_replica(group.leader_idx)
    settle_due(group.executors)
    assert group.stats.get("repl.truncated_records") == 5
    assert group.stats.get("repl.acked_lost") == 5
    election = {e.name: e for e in recorder.events if e.cat == CAT_REPL_ELECTION}
    truncate = election["truncate"]
    assert truncate.args["records"] == 5 and truncate.args["lsn"] == 0
    assert truncate.args["parent"] == election["kill"].args["span"]


def test_traced_admission_drops_emit_router_drop_instants():
    from repro.cluster import (
        AdmissionControl, ClientSpec, Cluster, ShardRouter, run_cluster,
    )
    from repro.obs.events import CAT_QUEUE, DROP_CAUSES

    cluster = Cluster(
        "miodb", n_shards=2, scale=SCALE,
        replication=ReplicationConfig(followers=1),
    )
    router = ShardRouter(cluster)
    recorders = cluster.attach_tracing()
    result = run_cluster(
        router,
        [ClientSpec(n_ops=200, rate_per_s=5_000_000.0, key_space=200, seed=s)
         for s in (1, 2)],
        admission=AdmissionControl(max_queue_depth=2, policy="reject"),
    )
    cluster.detach_tracing()
    drops = [e for recorder in recorders for e in recorder.events
             if e.cat == CAT_QUEUE and e.name == "drop"]
    assert result.dropped > 0 and len(drops) == result.dropped
    assert all(e.track == "router" and e.args["cause"] in DROP_CAUSES
               for e in drops)


def test_lag_timeline_covers_every_follower():
    __, recorder = traced_run(n_ops=20)
    lag = follower_lag_timeline(recorder)
    assert sorted(lag) == ["g0:r1", "g0:r2"]
    for series in lag.values():
        assert series
        for point in series:
            assert point["lag"] >= 0
            assert point["t_s"] >= 0.0
        assert [p["t_s"] for p in series] == sorted(p["t_s"] for p in series)


def test_replication_summary_shape_and_conservation():
    __, recorder = traced_run(n_ops=20)
    summary = replication_summary(recorder)
    assert summary is not None
    assert set(summary["phases"]) == {"ship_s", "apply_s", "ack_s", "election_s"}
    assert summary["appends"] > 0
    assert summary["acks"] == 20
    assert sorted(summary["followers"]) == ["g0:r1", "g0:r2"]
    total_straggles = sum(summary["stragglers"].values())
    assert total_straggles == summary["acks"]
    assert summary["failovers"] == []


def test_unreplicated_trace_has_no_replication_summary():
    from repro.bench.factory import make_store

    store, __ = make_store("miodb", SCALE)
    recorder = store.system.attach_tracing()
    for i in range(10):
        store.put(key_for(i), SizedValue(i, 256))
    assert replication_summary(recorder) is None


# ------------------------------------------------- recorder follows leader


def test_shard_recorder_follows_the_leader_across_failover():
    """Ops served by the new leader land in the shard's recorder: the
    recorder moves to the winner's machine with the shard's repoint."""
    from repro.cluster import Cluster, ShardRouter
    from repro.obs.events import CAT_OP

    cluster = Cluster(
        "miodb", n_shards=1, scale=SCALE,
        replication=ReplicationConfig(followers=2),
    )
    router = ShardRouter(cluster)
    (recorder,) = cluster.attach_tracing()
    for i in range(50):
        router.put(key_for(i), SizedValue(i, 256))
    group = cluster.groups[0]
    group.crash_replica(group.leader_idx)
    for i in range(50, 100):
        router.put(key_for(i), SizedValue(i, 256))
    shard = cluster.shards[0]
    assert shard.system is group.leader.system
    assert shard.system.obs is recorder
    assert recorder.clock is shard.system.clock
    assert sum(1 for e in recorder.events if e.cat == CAT_OP) == 100
    cluster.detach_tracing()
    assert shard.system.obs is None and not recorder.attached


def test_live_recorder_follows_the_leader_across_failover():
    """A shard's live recorder moves with the election too: it keeps
    counting on the new leader, closes no window early, and writes its
    ``live.*`` stats once, at the final detach."""
    from repro.cluster import Cluster, ShardRouter
    from repro.obs.live.window import WINDOW_S

    cluster = Cluster(
        "miodb", n_shards=1, scale=SCALE,
        replication=ReplicationConfig(followers=2),
    )
    router = ShardRouter(cluster)
    (recorder,) = cluster.attach_live(seed=1)
    for i in range(200):
        router.put(key_for(i), SizedValue(i, 256))
    group = cluster.groups[0]
    old = group.leader.system
    group.crash_replica(group.leader_idx)
    for i in range(200, 400):
        router.put(key_for(i), SizedValue(i, 256))
    shard = cluster.shards[0]
    assert shard.system is group.leader.system
    assert shard.system is not old
    assert shard.system.obs is recorder and old.obs is None
    assert recorder.sampling_meta()["ops_seen"] == 400
    cluster.detach_tracing()
    assert not recorder.attached
    rows = recorder.window.rows
    assert len(rows) > 1 and sum(row["ops"] for row in rows) == 400
    # Only the final detach closes a partial window: every earlier row
    # ends on a window edge, none at the election.
    for row in rows[:-1]:
        edges = row["t_s"] / WINDOW_S
        assert edges == pytest.approx(round(edges), abs=1e-6)
    assert old.stats.get("live.ops_seen") == 0
    assert shard.system.stats.get("live.ops_seen") == 400
    assert shard.system.stats.get("live.windows") == len(rows)


# -------------------------------------------------------------- strict vocab


def test_strict_recorder_rejects_unknown_repl_event_names():
    from repro.obs.events import CAT_REPL_SHIP as SHIP
    from repro.mem.system import HybridMemorySystem
    from repro.obs.recorder import check_vocabulary

    recorder = HybridMemorySystem().attach_tracing()
    recorder.instant("repl:g0", "append", SHIP, {"span": 1, "lsn": 1})
    check_vocabulary(recorder)
    recorder.instant("repl:g0", "enqueue", SHIP, {"span": 2})
    with pytest.raises(ValueError, match="'enqueue'"):
        check_vocabulary(recorder)
