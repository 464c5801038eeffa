"""One model-based checker for every store, cluster and replicated cluster.

:class:`ModelChecker` is a hypothesis state machine.  Each ``Test*``
case below drives one target through the public ``KVStore`` /
``ShardRouter`` surface against one model: a dict, folded from the
ordered list of acked writes.

- Every read (get, scan, multi_get, items) must equal the dict.
- After a crash + recover, or a replica kill / restart, ``items()`` must
  equal the dict at some prefix of the acked writes.  The prefix may not
  end before the durable horizon: every acked write under ``sync`` fsync
  and under quorum acks; under ``batch:N`` / ``interval:T``, every write
  acked while the WAL had nothing buffered.  The one in-flight,
  unacknowledged write may have landed or not.
- After every step: ``verify_store`` on MioDB; on the traced
  replicated target one op span per point op issued; and on the traced
  bare stores, conservation between the stats and the trace:
  ``compact.time_s`` is the summed compact-span durations,
  ``flush.time_s + swizzle.time_s`` the summed flush-span durations
  (MioDB's swizzle is a second flush span; NoveLSM's NVM flush is
  chunked), and every counted compaction has a span -- the count is
  added at apply, the span at submit, so a quiesce makes them equal.
  Jobs a crash drops or interrupts are spans that never count.
- After every quiesce, on every target: each stats registry it writes
  (store, cluster, replica group, every shard and member machine) holds
  only ``KEY_FAMILIES`` families, and every traced recorder passes
  ``check_vocabulary`` (categories, ``repl.*`` names, stall and drop
  causes).  With every public method called on every store, this is
  the engine-interface and vocabulary contract's runtime gate.

A failure is shrunk and printed as a step list (``state = CheckMiodb()``,
``state.put(k=3)``, ...); pasted into a test it replays the failure
(docs/simulation.md, "Model checker").
"""

import math

from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bench.config import BenchScale
from repro.bench.factory import make_store
from repro.cluster import Cluster, ShardRouter
from repro.cluster.rebalance import rebalance_hot_shard
from repro.core import MioDB, MioOptions, recover
from repro.kvstore.batch import WriteBatch
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.obs.events import CAT_COMPACT, CAT_FLUSH
from repro.obs.recorder import check_vocabulary
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.replication import READ_FOLLOWER_RYW, READ_LEADER, ReplicationConfig
from repro.sim.stats import KEY_FAMILIES
from tests.support.probes import pending_count, tear_tail
from tests.support.verifier import verify_store

KB = 1 << 10
KEYS = 24
VALUE_BYTES = 128
#: One MemTable holds ~6 values, so a few steps flush and compact.
SCALE = BenchScale(memtable_bytes=KB, dataset_bytes=64 * KB,
                   value_size=VALUE_BYTES, nvm_buffer_bytes=8 * KB)
#: Every crash point a MioDB reaches.  The first two leave the in-flight
#: write at the WAL's tail, where ``tear_tail`` models a torn append.
CRASH_POINTS = (
    "put.after_wal", "write.after_wal_batch", "flush.after_copy",
    "flush.after_swizzle", "compact.after_zero_copy", "compact.after_lazy_copy",
)
#: Writes the crash rule issues before it gives up on an armed point.
CRASH_WRITES = 150
POINT_OPS = ("put", "get", "delete")
#: The committed budget: fixed, deterministic, no knob.  No explain
#: phase: it re-runs each failure under a line tracer, which costs
#: minutes on a crash loop.
BUDGET = settings(max_examples=60, stateful_step_count=50,
                  derandomize=True, database=None, deadline=None,
                  phases=(Phase.generate, Phase.shrink))

keys = st.integers(0, KEYS - 1)
key_lists = st.lists(keys, min_size=1, max_size=8)


def _key(i: int) -> bytes:
    return b"k%02d" % i


def _fold(model: dict, entry) -> None:
    """Apply one acked entry: ``(key, tag)`` pairs, ``None`` deletes."""
    for key, tag in entry:
        if tag is None:
            model.pop(key, None)
        else:
            model[key] = tag


class Target:
    """What one test case checks: a bare store, or a sharded cluster."""

    def __init__(self, store, fsync="sync", ssd=False, shards=0,
                 followers=None, read_policy=READ_LEADER, traced=False):
        self.store = store
        self.fsync = fsync
        self.ssd = ssd
        self.shards = shards
        self.followers = followers
        self.read_policy = read_policy
        self.traced = traced


class ModelChecker(RuleBasedStateMachine):
    """The rule table; each case below subclasses it with a ``TARGET``."""

    TARGET: Target

    def __init__(self):
        super().__init__()
        target = self.TARGET
        self.store = self.injector = self.router = self.recorder = None
        self.session = self.recorders = None
        self.groups = []
        if target.shards:
            replication = None
            if target.followers is not None:
                replication = ReplicationConfig(
                    followers=target.followers, read_policy=target.read_policy
                )
            cluster = Cluster(target.store, n_shards=target.shards,
                              scale=SCALE, replication=replication)
            self.router = ShardRouter(cluster)
            self.groups = [g for g in cluster.groups if g is not None]
            if target.read_policy == READ_FOLLOWER_RYW:
                self.session = self.router.session()
            if target.traced:
                self.recorders = cluster.attach_tracing()
        elif target.store == "miodb":
            self.injector = CrashInjector()
            options = MioOptions(
                memtable_bytes=KB, sstable_bytes=KB, num_levels=3,
                fsync_policy=target.fsync,
            )
            self.store = MioDB(HybridMemorySystem(ssd=target.ssd), options,
                               crash_injector=self.injector)
        else:
            self.store, __ = make_store(target.store, SCALE)
        if target.traced and self.router is None:
            self.recorder = self.store.system.attach_tracing()
        # Conservation bookkeeping: the trace read so far, the compact
        # spans and the compact / flush span seconds in it, and the
        # compactions crashes lost before they counted.
        self.traced = self.compact_spans = self.lost_compactions = 0
        self.compact_s = self.flush_s = 0.0
        self.acked = []
        self.model = {}
        self.durable = 0
        self.tag = 0
        self.point_ops = 0

    # ------------------------------------------------------------ plumbing

    @property
    def subject(self):
        return self.store if self.router is None else self.router

    def _value(self) -> SizedValue:
        self.tag += 1
        return SizedValue(self.tag, VALUE_BYTES)

    def _op(self, kind: str, *args):
        """One point op (with the session, on a router)."""
        self.point_ops += 1
        if self.router is None:
            return getattr(self.store, kind)(*args)
        return getattr(self.router, kind)(*args, self.session)

    def _ack(self, *entries) -> None:
        for entry in entries:
            self.acked.append(entry)
            _fold(self.model, entry)
        if self.injector is None or pending_count(self.store.wal) == 0:
            self.durable = len(self.acked)

    def _batch(self, ops):
        """A ``WriteBatch`` and its model entry from ``(key, is_put)``."""
        batch = WriteBatch()
        entry = []
        for k, is_put in ops:
            if is_put:
                value = self._value()
                batch.put(_key(k), value)
                entry.append((_key(k), value.tag))
            else:
                batch.delete(_key(k))
                entry.append((_key(k), None))
        return batch, tuple(entry)

    def _expect(self, key: bytes, value) -> None:
        tag = None if value is None else value.tag
        assert tag == self.model.get(key), (key, tag, self.model.get(key))

    def _state(self) -> dict:
        return {key: value.tag for key, value in self.subject.items()}

    def _check_state(self) -> None:
        state = self._state()
        assert state == self.model, sorted(
            set(state.items()) ^ set(self.model.items())
        )

    def _counted_compactions(self) -> float:
        """Trace the new events; compactions counted, plus those lost."""
        events = self.recorder.events
        for event in events[self.traced:]:
            if event.cat == CAT_COMPACT:
                self.compact_spans += 1
                self.compact_s += event.dur
            elif event.cat == CAT_FLUSH:
                self.flush_s += event.dur
        self.traced = len(events)
        stats = self.store.system.stats
        counted = stats.get("compact.count") + stats.get("compact.lazy_count")
        return counted + self.lost_compactions

    def _check_recovered(self, inflight=()) -> None:
        """``items()`` is the model at some prefix of the acked writes
        (and maybe the in-flight one) no shorter than the durable
        horizon; that prefix becomes the model."""
        state = self._state()
        entries = self.acked + ([inflight] if inflight else [])
        model = {}
        matched = None
        for length in range(len(entries) + 1):
            if length:
                _fold(model, entries[length - 1])
            if length >= self.durable and model == state:
                matched = length
        assert matched is not None, (
            f"no prefix of {len(self.acked)} acked writes at or past the "
            f"durable horizon {self.durable} matches: "
            f"{sorted(set(state.items()) ^ set(self.model.items()))}"
        )
        self.acked = entries[:matched]
        self.model = state
        self.durable = matched

    # --------------------------------------------------------------- rules

    @rule(k=keys)
    def put(self, k):
        value = self._value()
        self._op("put", _key(k), value)
        self._ack(((_key(k), value.tag),))

    @rule(k=keys)
    def delete(self, k):
        self._op("delete", _key(k))
        self._ack(((_key(k), None),))

    @rule(k=keys)
    def get(self, k):
        value, __ = self._op("get", _key(k))
        self._expect(_key(k), value)

    @rule(k=keys, count=st.integers(0, 8))
    def scan(self, k, count):
        pairs, __ = self.subject.scan(_key(k), count)
        expected = sorted(
            (key, tag) for key, tag in self.model.items() if key >= _key(k)
        )[:count]
        assert [(key, value.tag) for key, value in pairs] == expected

    @precondition(lambda self: self.router is None)
    @rule(ks=key_lists)
    def multi_put(self, ks):
        values = [self._value() for __ in ks]
        self.store.multi_put([(_key(k), v) for k, v in zip(ks, values)])
        self._ack(*(((_key(k), v.tag),) for k, v in zip(ks, values)))

    @precondition(lambda self: self.router is None)
    @rule(ks=key_lists)
    def multi_get(self, ks):
        results = self.store.multi_get([_key(k) for k in ks])
        for k, (value, __) in zip(ks, results):
            self._expect(_key(k), value)

    @precondition(lambda self: self.router is None)
    @rule(ks=key_lists)
    def multi_delete(self, ks):
        self.store.multi_delete([_key(k) for k in ks])
        self._ack(*(((_key(k), None),) for k in ks))

    @precondition(lambda self: self.router is None)
    @rule(ops=st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=4))
    def write(self, ops):
        batch, entry = self._batch(ops)
        self.store.write(batch)
        self._ack(entry)

    def _registries(self):
        """Every stats registry the target writes: the store's, or the
        cluster's, each group's and each shard and member machine's."""
        if self.router is None:
            return [self.store.system.stats]
        cluster = self.router.cluster
        return [cluster.stats, *(g.stats for g in self.groups),
                *(shard.system.stats for shard in cluster.shards),
                *(m.system.stats for g in self.groups for m in g.members)]

    @rule()
    def quiesce(self):
        self.subject.quiesce()
        self._check_state()
        if self.recorder is not None:
            assert self._counted_compactions() == self.compact_spans
        for stats in self._registries():
            families = set(stats.snapshot_grouped())
            assert families <= set(KEY_FAMILIES), families - set(KEY_FAMILIES)
        for recorder in self.recorders or [self.recorder]:
            if recorder is not None:
                check_vocabulary(recorder)

    @precondition(lambda self: self.injector is not None)
    @rule(point=st.sampled_from(CRASH_POINTS), hits=st.integers(1, 3),
          tear=st.booleans())
    def crash_and_recover(self, point, hits, tear):
        """Arm ``point``, write until it fires, maybe tear the in-flight
        append, recover."""
        batched = point == "write.after_wal_batch"
        self.injector.rearm(point, hits)
        for i in range(CRASH_WRITES):
            k = i * 7 % KEYS
            ops = [(k, True), ((k + 1) % KEYS, True)] if batched else [(k, True)]
            batch, inflight = self._batch(ops)
            try:
                if batched:
                    self.store.write(batch)
                else:
                    self.store.put(*batch.ops[0][1:])
            except SimulatedCrash:
                break
            self._ack(inflight)
        else:
            self.injector.disarm(point)
            return
        if self.recorder is not None:
            counted = self._counted_compactions()
            self.lost_compactions += self.compact_spans - counted
        if tear and point in CRASH_POINTS[:2]:
            tear_tail(self.store.wal, 1)
        self.store, __ = recover(self.store)
        self._check_recovered(inflight)

    @precondition(lambda self: self.groups)
    @rule(shard=st.integers(0, 3), leader=st.booleans())
    def kill_replica(self, shard, leader):
        """Kill one member of a group that has no fault yet (a
        replacement counts until it has bootstrapped)."""
        group = self.groups[shard % len(self.groups)]
        if group.leader_idx is None or not all(
            m.alive and not m.bootstrap_lsn for m in group.members
        ):
            return
        followers = group.alive_followers()
        victim = group.leader_idx
        if followers and not leader:
            victim = followers[0].replica_id
        group.crash_replica(victim)
        if len(group.alive_members()) < group.config.quorum_size:
            group.restart_replica(victim)  # K=0: nothing serves until then
        self._check_recovered()

    @precondition(
        lambda self: any(not m.alive for g in self.groups for m in g.members)
    )
    @rule()
    def restart_replicas(self):
        for group in self.groups:
            for member in group.members:
                if not member.alive:
                    group.restart_replica(member.replica_id)
        self._check_state()

    @precondition(lambda self: self.router is not None)
    @rule(shard=st.integers(0, 3))
    def rebalance(self, shard):
        shard %= self.router.cluster.n_shards
        try:
            moved = rebalance_hot_shard(self.router, shard)
        except ValueError:
            return  # the shard owns a single ring arc
        self.point_ops += 2 * moved.moved_keys  # a put and a delete per key
        self._check_state()

    # ---------------------------------------------------------- invariants

    @invariant()
    def miodb_structure_holds(self):
        if isinstance(self.store, MioDB):
            verify_store(self.store)

    @invariant()
    def background_work_conserves(self):
        if self.recorder is None:
            return
        assert self._counted_compactions() <= self.compact_spans
        stats = self.store.system.stats
        assert math.isclose(stats.get("compact.time_s"), self.compact_s)
        flush_s = stats.get("flush.time_s") + stats.get("swizzle.time_s")
        assert math.isclose(flush_s, self.flush_s)

    @invariant()
    def one_op_span_per_point_op(self):
        if self.recorders is not None:
            spans = sum(
                1 for recorder in self.recorders for event in recorder.events
                if event.cat == "op" and event.name in POINT_OPS
            )
            assert spans == self.point_ops, (spans, self.point_ops)


TARGETS = {
    "Miodb": Target("miodb", traced=True),
    "MiodbSsd": Target("miodb", ssd=True, traced=True),
    "MiodbBatch4": Target("miodb", fsync="batch:4"),
    "MiodbInterval": Target("miodb", fsync="interval:1e-05"),
    "Matrixkv": Target("matrixkv", traced=True),
    "Novelsm": Target("novelsm", traced=True),
    "NovelsmHier": Target("novelsm-hier", traced=True),
    "NovelsmNosst": Target("novelsm-nosst", traced=True),
    "Leveldb": Target("leveldb", traced=True),
    "Slmdb": Target("slmdb", traced=True),
    "ClusterMiodb": Target("miodb", shards=4),
    "ReplMiodbK0": Target("miodb", shards=2, followers=0),
    "ReplMiodbK2": Target("miodb", shards=2, followers=2, traced=True),
    "ReplLeveldb": Target("leveldb", shards=2, followers=2,
                          read_policy=READ_FOLLOWER_RYW),
    "ReplMatrixkv": Target("matrixkv", shards=2, followers=2),
    "ReplSlmdb": Target("slmdb", shards=2, followers=2,
                        read_policy=READ_FOLLOWER_RYW),
    "ReplNovelsmHier": Target("novelsm-hier", shards=2, followers=2),
}

for _name, _target in TARGETS.items():
    _machine = type(f"Check{_name}", (ModelChecker,), {"TARGET": _target})
    _machine.TestCase.settings = BUDGET
    globals()[_machine.__name__] = _machine
    globals()[f"Test{_name}"] = _machine.TestCase
