"""Oracles for the sorted-run merge kernels.

Three call sites merge a sorted run into a skip list and charge each
node the hops of a from-head search: ``ZeroCopyMerge.run`` (one two-way
merge of both bottom chains, hop counts kept as the cursor keeps them),
and ``NvmRepository.ingest`` and NoveLSM's DRAM->NVM flush (one monotone
cursor).  Each is checked against the per-node, search-from-the-head
procedure it replaced: ``ZeroCopyMerge.step`` (still the resumable path
in ``src/``) and, for the other two, the original bodies kept below.
Equality is exact: counters, float seconds, tower links, device
counters and traced transfers.
"""

import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.novelsm import NoveLSMOptions, NoveLSMStore
from repro.core.pmtable import PMTable
from repro.core.repository import NvmRepository, newest_versions
from repro.kvstore.memtable import memtable_entries
from repro.mem.system import HybridMemorySystem
from repro.obs.events import CAT_FLUSH, CAT_TRANSFER
from repro.persist.arena import Arena
from repro.sim.rng import XorShiftRng
from repro.skiplist.merge import ZeroCopyMerge
from repro.skiplist.node import MAX_HEIGHT, NODE_OVERHEAD_BYTES, TOMBSTONE
from repro.skiplist.skiplist import SkipList

KB = 1 << 10


def towers(sl):
    """Every level's chain as (key, seq, height) triples."""
    levels = []
    for level in range(MAX_HEIGHT):
        chain = []
        node = sl.head.next[level]
        while node is not None:
            chain.append((node.key, node.seq, node.height))
            node = node.next[level]
        levels.append(chain)
    return levels


def accounting(sl):
    return (sl.entries, sl.data_bytes, sl.garbage_bytes, sl._tallest)


def transfers(recorder):
    return [
        (e.track, e.name, e.ts, sorted(e.args.items()))
        for e in recorder.events
        if e.cat == CAT_TRANSFER
    ]


# ------------------------------------------------ (b) run() vs a step() loop

keys = st.binary(min_size=1, max_size=2)
versions = st.lists(st.tuples(keys, st.integers(1, 40)), max_size=50)


def build_pair(old_spec, new_spec, seed, interleave=False):
    """(new, old) tables.  The newtable's seqs sit above the oldtable's,
    as in every store, or with ``interleave`` alternate with them."""
    old = SkipList(XorShiftRng(seed))
    new = SkipList(XorShiftRng(seed + 1))
    for table, spec, newer in ((old, old_spec, 0), (new, new_spec, 1)):
        seen = set()
        for key, seq in spec:
            if (key, seq) not in seen:
                seen.add((key, seq))
                seq_no = 2 * seq + newer if interleave else 1000 * newer + seq
                table.insert(key, seq_no, ("v", seq_no), 8 + seq)
    return new, old


def assert_run_equals_step_loop(new, old, ref_new, ref_old):
    merge = ZeroCopyMerge(new, old).run()
    ref = ZeroCopyMerge(ref_new, ref_old)
    while ref.step():
        pass
    assert merge.done and ref.done
    assert (
        merge.pointer_writes, merge.search_hops, merge.nodes_moved, merge.nodes_dropped
    ) == (ref.pointer_writes, ref.search_hops, ref.nodes_moved, ref.nodes_dropped)
    assert towers(old) == towers(ref_old)
    assert towers(new) == towers(ref_new) == [[]] * MAX_HEIGHT
    assert accounting(old) == accounting(ref_old)
    assert accounting(new) == accounting(ref_new)
    return merge


@settings(max_examples=200)
@given(versions, versions, st.integers(1, 1 << 16), st.booleans())
def test_run_equals_step_loop(old_spec, new_spec, seed, interleave):
    new, old = build_pair(old_spec, new_spec, seed, interleave)
    ref_new, ref_old = build_pair(old_spec, new_spec, seed, interleave)
    originals = {(n.key, n.seq): n for sl in (new, old) for n in sl.nodes()}
    old.frozen_index()
    new.frozen_index()

    merge = assert_run_equals_step_loop(new, old, ref_new, ref_old)
    # zero-copy: the merged table links the very node objects it was given
    assert all(n is originals[(n.key, n.seq)] for n in old.nodes())
    if merge.nodes_moved:
        assert old._index_version != old._version
        assert new._index_version != new._version


def test_run_equals_step_loop_on_a_large_interleaved_pair():
    def pair():
        old = SkipList(XorShiftRng(13))
        new = SkipList(XorShiftRng(11))
        for i in range(3000):
            old.insert(b"%06d" % (3 * i), i + 1, i, 100)
            new.insert(b"%06d" % (2 * i), 10_000 + i, i, 100)
        return new, old

    merge = assert_run_equals_step_loop(*pair(), *pair())
    assert merge.nodes_dropped == 1000


def test_run_links_a_single_node_between_two():
    def pair():
        new = SkipList(XorShiftRng(3))
        new.insert(b"b", 5, "new", 8)
        old = SkipList(XorShiftRng(1))
        for seq, key in enumerate([b"a", b"c"], start=1):
            old.insert(key, seq, "old", 8)
        return new, old

    new, old = pair()
    node = new.head.next[0]
    want = old._find_predecessors(node.key, node.seq)[1]
    merge = assert_run_equals_step_loop(new, old, *pair())
    assert merge.search_hops == want
    assert [n.key for n in old.nodes()] == [b"a", b"b", b"c"]
    assert old.head.next[0].next[0] is node
    assert old.entries == 3


# ------------------------------------- (c) NvmRepository.ingest vs original


def reference_ingest(repo, table):
    """``NvmRepository.ingest`` as it was: two descents per copied node."""
    nvm = repo.system.nvm
    seconds = 0.0
    for node in newest_versions(table.skiplist):
        value_bytes = max(0, node.nbytes - len(node.key) - NODE_OVERHEAD_BYTES)
        existing, hops = repo.skiplist.get(node.key)
        seconds += nvm.search_time(max(hops, 1))
        if node.is_tombstone:
            if existing is not None:
                preds = repo.skiplist.predecessors_of(existing)
                repo.skiplist.unlink(existing, preds, to_garbage=False)
                seconds += nvm.write(8 * existing.height, sequential=False)
                repo.arena.shrink(existing.nbytes)
            continue
        if existing is not None:
            if node.seq <= existing.seq:
                continue
            delta = repo.skiplist.update_in_place(
                existing, node.seq, node.value, value_bytes
            )
            if delta > 0:
                repo.arena.grow(delta)
            elif delta < 0:
                repo.arena.shrink(-delta)
            seconds += nvm.write(existing.nbytes, sequential=False)
        else:
            new_node, ins_hops = repo.skiplist.insert(
                node.key, node.seq, node.value, value_bytes
            )
            seconds += nvm.search_time(max(ins_hops, 1))
            seconds += nvm.write(new_node.nbytes, sequential=False)
            repo.arena.grow(new_node.nbytes)
    return seconds, None


def make_pmtable(system, entries):
    sl = SkipList(XorShiftRng(3))
    for key, seq, value, value_bytes in entries:
        sl.insert(key, seq, value, 0 if value is TOMBSTONE else value_bytes)
    arena = Arena(system.nvm, max(sl.data_bytes, 1), "test-pmtable")
    table = PMTable(system, sl, [arena], bloom=None, level=0)
    table.swizzled = True
    return table


def ingest_tables(rng, key_space, rounds):
    """Entry lists covering inserts, updates, stale versions, tombstones."""
    seq = 0
    tables = []
    for __ in range(rounds):
        entries = []
        for __ in range(rng.next_below(key_space) + key_space // 2):
            seq += 1
            key = b"%05d" % rng.next_below(key_space)
            roll = rng.next_below(10)
            if roll == 0:
                entries.append((key, seq, TOMBSTONE, 0))
            elif roll == 1:
                # a version older than anything the repository can hold
                entries.append((key, 0 - seq, ("stale", seq), 16))
            else:
                entries.append((key, seq, ("v", seq), 8 + rng.next_below(200)))
        tables.append(entries)
    return tables


def repo_state(repo):
    return (
        towers(repo.skiplist),
        [(n.value, n.nbytes) for n in repo.skiplist.nodes()],
        accounting(repo.skiplist),
        repo.arena.size,
        repo.system.nvm.bytes_written,
        repo.system.nvm.write_ops,
        repo.system.nvm.bytes_in_use,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ingest_matches_per_node_original(seed):
    systems = HybridMemorySystem(), HybridMemorySystem()
    recorders = [s.attach_tracing() for s in systems]
    new_repo, old_repo = (NvmRepository(s) for s in systems)
    scratch = HybridMemorySystem()
    saw = set()
    for entries in ingest_tables(XorShiftRng(seed), key_space=300, rounds=6):
        before = {n.key: n.seq for n in new_repo.skiplist.nodes()}
        for node in newest_versions(make_pmtable(scratch, entries).skiplist):
            if node.is_tombstone:
                saw.add("tombstone-hit" if node.key in before else "tombstone-miss")
            elif node.key not in before:
                saw.add("insert")
            else:
                saw.add("stale" if node.seq <= before[node.key] else "update")
        if not before:
            saw.add("empty-repository")
        got = new_repo.ingest(make_pmtable(systems[0], entries))
        want = reference_ingest(old_repo, make_pmtable(systems[1], entries))
        assert got == want  # float seconds, exactly
        assert repo_state(new_repo) == repo_state(old_repo)
    assert saw == {
        "empty-repository", "insert", "update", "stale",
        "tombstone-hit", "tombstone-miss",
    }
    assert transfers(recorders[0]) == transfers(recorders[1])
    assert len(transfers(recorders[0])) > 100


# ------------------------------------ (c) NoveLSM DRAM flush vs original


def reference_dram_flush(self, table):
    """``NoveLSMStore._schedule_flush`` as it was: one descent per KV."""
    self._ensure_nvm_room(table.skiplist.footprint_bytes)
    entries = memtable_entries(table)
    seconds = 0.0
    with self.system.job_scope():
        for key, seq, value, value_bytes in entries:
            node, hops = self.nvm_mt.skiplist.insert(key, seq, value, value_bytes)
            seconds += self.system.nvm.search_time(max(hops, 1))
            seconds += self.system.nvm.write(node.nbytes, sequential=False)
    last_seq = max((e[1] for e in entries), default=self.seq)

    def apply() -> None:
        table.release()
        if self.immutable is table:
            self.immutable = None
        self.wal.truncate_through(last_seq)

    self.system.stats.add("flush.count", 1)
    self.system.stats.add("flush.time_s", seconds)
    self.system.stats.add("flush.bytes", table.data_bytes)
    return self.system.executor.submit(
        self.flush_worker, seconds, apply, name=f"{self.name}-dram-flush",
        meta={"cat": CAT_FLUSH, "bytes": table.data_bytes},
    )


def drive_novelsm(reference: bool):
    system = HybridMemorySystem()
    recorder = system.attach_tracing()
    options = NoveLSMOptions(
        memtable_bytes=8 * KB, sstable_bytes=8 * KB, nvm_memtable_bytes=512 * KB
    )
    store = NoveLSMStore(system, options)
    if reference:
        store._schedule_flush = types.MethodType(reference_dram_flush, store)
    flushes = []
    schedule = store._schedule_flush

    def spy(table):
        job = schedule(table)
        flushes.append(
            (job.end - job.start, towers(store.nvm_mt.skiplist), accounting(store.nvm_mt.skiplist))
        )
        return job

    store._schedule_flush = spy
    rng = XorShiftRng(99)
    latencies = []
    for i in range(2500):
        key = b"%04d" % rng.next_below(400)
        if rng.next_below(8) == 0:
            latencies.append(store.delete(key))
        else:
            latencies.append(store.put(key, b"x" * (20 + rng.next_below(120))))
    store.quiesce()
    return {
        "flushes": flushes,
        "latencies": latencies,
        "now": system.clock.now,
        "flush_time_s": system.stats.get("flush.time_s"),
        "nvm": (system.nvm.bytes_written, system.nvm.write_ops),
        "transfers": transfers(recorder),
    }


def test_novelsm_dram_flush_matches_per_node_original():
    got = drive_novelsm(reference=False)
    want = drive_novelsm(reference=True)
    # vacuity guard: several flushes, into an NVM MemTable that already
    # holds other versions of the same keys (earlier flushes, direct puts)
    assert len(got["flushes"]) >= 5
    assert any(
        len({key for key, __, __ in level0}) < len(level0)
        for __, (level0, *__), __ in got["flushes"]
    )
    assert got == want
