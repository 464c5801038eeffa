"""Pins for the sixteen simulated-clock fingerprint kernels, at both presets.

Each kernel is a small deterministic workload over MioDB and the
structures under it.  It builds its own fresh store/system, runs one
batch of operations and returns ``(ops, fingerprint)``: the simulated
clock at the end of the run (for ``compact`` the exact merge work
counters, for ``ingest`` the simulated seconds the call returns), a pure
function of the model.  ``kernel/<preset>/<kernel>`` in ``tests/pins.json``
holds it, so a change that moves a simulated number fails by kernel name.
The ``-traced``, ``-live`` and ``-repl0`` kernels have no entry of their
own: a recorder, or a replica group of one, adds zero simulated time, so
they land on their plain kernel's pin.

Nothing here reads the host clock.  Host time is measured by
``benchmarks/e2e/run.py`` and nothing else (docs/performance.md).
"""

from functools import partial
from typing import Callable, Dict, Optional, Tuple

import pytest

from repro.bench.config import KB, BenchScale
from repro.bench.factory import make_store
from repro.cluster import ClientSpec, Cluster, ShardRouter, run_cluster
from repro.core.pmtable import PMTable
from repro.core.repository import NvmRepository
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.persist.arena import Arena
from repro.replication import (
    ACK_LEADER,
    ACK_QUORUM,
    READ_FOLLOWER_EVENTUAL,
    READ_LEADER,
    ReplicationConfig,
)
from repro.sim.rng import XorShiftRng
from repro.skiplist.merge import ZeroCopyMerge
from repro.skiplist.node import TOMBSTONE
from repro.skiplist.skiplist import SkipList
from repro.workloads import (
    fill_random,
    fill_seq,
    key_for,
    overwrite,
    read_random,
    seek_random,
)
from tests.support.groups import build_group

pytestmark = pytest.mark.perf_smoke

STORE = "miodb"

# Workload sizes per preset, decoupled from REPRO_BENCH_SCALE.
PRESETS = {
    "tiny": BenchScale(
        memtable_bytes=64 * KB, dataset_bytes=512 * KB, value_size=4 * KB, rw_ops=64
    ),
    "default": BenchScale(),
}

# The kernels drive the store through the batched ``multi_*`` entry
# points in chunks of this many ops.  Batching never changes a simulated
# number (docs/performance.md), which is why the pins predate it.
KERNEL_BATCH = 256


def _subject(scale: BenchScale, followers: Optional[int]):
    """``(store, clock owner, batch size)`` for the put/get kernels.

    ``followers=None`` is the flat store.  A number is a ``ReplicaGroup``
    with that many followers: K=0 is a group of one (leader acks, leader
    reads), K>0 uses quorum acks and follower-eventual reads, so the
    shipping/ack pipeline is in the simulated seconds.  The group fronts
    whole stores, not the batched entry points, and is driven per op.
    """
    if followers is None:
        store, system = make_store(STORE, scale)
        return store, system, KERNEL_BATCH
    config = ReplicationConfig(
        followers=followers,
        ack_policy=ACK_LEADER if followers == 0 else ACK_QUORUM,
        read_policy=READ_LEADER if followers == 0 else READ_FOLLOWER_EVENTUAL,
    )
    group = build_group(STORE, scale, config=config)
    return group, group, None


def _kernel_put(scale: BenchScale, attach=None, followers=None) -> Tuple[int, float]:
    """``fill_random`` of one dataset, flushes and compactions included.

    ``attach`` (``HybridMemorySystem.attach_tracing`` or ``attach_live``)
    is applied to the system before the fill.
    """
    store, owner, batch = _subject(scale, followers)
    n = scale.records_for(scale.value_size)
    if attach is not None:
        attach(owner)
    fill_random(store, n, scale.value_size, seed=1, batch_size=batch)
    return n, owner.clock.now


def _kernel_get(scale: BenchScale, attach=None, followers=None) -> Tuple[int, float]:
    """``read_random`` over a loaded, quiesced store.

    ``attach`` is applied after the load, so only the reads are recorded.
    """
    store, owner, batch = _subject(scale, followers)
    n = scale.records_for(scale.value_size)
    fill_random(store, n, scale.value_size, seed=1, batch_size=batch)
    store.quiesce()
    if attach is not None:
        attach(owner)
    reads = min(scale.rw_ops, n)
    read_random(store, reads, n, seed=2, batch_size=batch)
    return reads, owner.clock.now


def _scanned_store(scale: BenchScale, levels: bool):
    """``(store, seeks)`` after the ``scan`` / ``scan-levels`` kernel's run."""
    store, __ = make_store(STORE, scale)
    n = scale.records_for(scale.value_size)
    fill_random(store, n, scale.value_size, seed=1, batch_size=KERNEL_BATCH)
    store.quiesce()
    if levels:
        overwrite(store, n // 4, n, scale.value_size, seed=3, batch_size=KERNEL_BATCH)
    seeks = max(8, min(scale.rw_ops, n) // 4)
    seek_random(store, seeks, n, scan_length=20, seed=5)
    return store, seeks


def _kernel_scan(scale: BenchScale, levels: bool = False) -> Tuple[int, float]:
    """Short range scans; over one source, or with ``levels`` a k-way merge.

    A quiesced store scans a single source.  ``levels`` adds a quarter
    overwrite left unquiesced, so MemTable, buffer levels and repository
    all hold versions the scan has to merge.
    """
    store, seeks = _scanned_store(scale, levels)
    return seeks, store.system.clock.now


def _kernel_flush(scale: BenchScale) -> Tuple[int, float]:
    # A deliberately small MemTable so rotation/flush dominates the run.
    flush_scale = BenchScale(
        memtable_bytes=max(32 * KB, scale.memtable_bytes // 8),
        dataset_bytes=scale.dataset_bytes // 4,
        value_size=scale.value_size,
        rw_ops=scale.rw_ops,
        nvm_buffer_bytes=scale.nvm_buffer_bytes,
    )
    store, system = make_store(STORE, flush_scale)
    n = flush_scale.records_for(flush_scale.value_size)
    fill_seq(store, n, flush_scale.value_size, batch_size=KERNEL_BATCH)
    store.quiesce()
    return n, system.clock.now


def _kernel_compact(scale: BenchScale) -> Tuple[int, float]:
    # The zero-copy merge inner loop, isolated from any store's policy.
    entries = max(64, scale.dataset_bytes // scale.value_size // 2)
    new = SkipList(XorShiftRng(11))
    old = SkipList(XorShiftRng(13))
    for i in range(entries):
        old.insert(key_for(2 * i), 2 * i + 1, i, scale.value_size)
        new.insert(key_for(2 * i + 1), 2 * (entries + i) + 1, i, scale.value_size)
    merge = ZeroCopyMerge(new, old).run()
    fingerprint = float(
        merge.pointer_writes * 1_000_000 + merge.search_hops * 1_000 + merge.nodes_moved
    )
    return entries, fingerprint


def _kernel_ingest(scale: BenchScale) -> Tuple[int, float]:
    # The lazy-copy inner loop (paper Section 4.4), isolated like
    # ``compact``: one PMTable into a repository that already holds half
    # of its keys, so in-place updates, fresh copies, tombstone deletes
    # and stale versions all occur.
    def pmtable(system, rows) -> PMTable:
        skiplist = SkipList(XorShiftRng(11))
        for key, seq, value, value_bytes in rows:
            skiplist.insert(key, seq, value, value_bytes)
        arena = Arena(system.nvm, skiplist.data_bytes, "perf-pmtable")
        return PMTable(system, skiplist, [arena], bloom=None)

    entries = max(64, scale.dataset_bytes // scale.value_size // 2)
    system = HybridMemorySystem()
    repository = NvmRepository(system)
    repository.ingest(pmtable(system, [
        (key_for(2 * i), i + 1, i, scale.value_size) for i in range(entries)
    ]))
    rows = []
    for i in range(entries):
        seq = entries + i + 1
        if i % 16 == 0:
            rows.append((key_for(i), seq, TOMBSTONE, 0))
        elif i % 16 == 1:
            rows.append((key_for(i - 1), 0, i, scale.value_size))  # stale
        else:
            rows.append((key_for(i), seq, i, scale.value_size))
    seconds, __ = repository.ingest(pmtable(system, rows))
    return entries, seconds


def _kernel_cluster(scale: BenchScale) -> Tuple[int, float]:
    # Router + admission on top of the stores: a preloaded 4-shard
    # cluster driven closed-loop by four clients.
    cluster = Cluster(STORE, n_shards=4, scale=scale)
    router = ShardRouter(cluster)
    key_space = scale.records_for(scale.value_size)
    for i in range(key_space):
        router.put(key_for(i), SizedValue(i, scale.value_size))
    router.quiesce()
    router.reset_window()
    clients = [
        ClientSpec(
            n_ops=max(64, scale.rw_ops // 4),
            rate_per_s=float("inf"),
            key_space=key_space,
            value_size=scale.value_size,
            seed=17 + i,
        )
        for i in range(4)
    ]
    result = run_cluster(router, clients)
    router.quiesce()
    return result.completed, cluster.clock.now


_KERNEL_FNS: Dict[str, Callable[[BenchScale], Tuple[int, float]]] = {
    "put": _kernel_put,
    "get": _kernel_get,
    "scan": _kernel_scan,
    "scan-levels": partial(_kernel_scan, levels=True),
    "flush": _kernel_flush,
    "compact": _kernel_compact,
    "ingest": _kernel_ingest,
    "cluster": _kernel_cluster,
    "put-traced": partial(_kernel_put, attach=HybridMemorySystem.attach_tracing),
    "get-traced": partial(_kernel_get, attach=HybridMemorySystem.attach_tracing),
    "put-live": partial(_kernel_put, attach=HybridMemorySystem.attach_live),
    "get-live": partial(_kernel_get, attach=HybridMemorySystem.attach_live),
    "put-repl0": partial(_kernel_put, followers=0),
    "get-repl0": partial(_kernel_get, followers=0),
    "put-repl2": partial(_kernel_put, followers=2),
    "get-repl2": partial(_kernel_get, followers=2),
}

KERNELS = tuple(_KERNEL_FNS)


def run_kernel(name: str, preset: str) -> Tuple[int, float]:
    """Run one kernel at one preset; returns ``(ops, fingerprint)``."""
    return _KERNEL_FNS[name](PRESETS[preset])


def _pin_name(kernel: str, preset: str) -> str:
    base, __, variant = kernel.partition("-")
    if variant in ("traced", "live", "repl0"):
        kernel = base
    return f"kernel/{preset}/{kernel}"


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_is_deterministic_across_fresh_runs(kernel, pin):
    ops, fingerprint = run_kernel(kernel, "tiny")
    assert ops > 0
    pin(_pin_name(kernel, "tiny"), fingerprint)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_is_pinned_at_the_default_preset(kernel, pin):
    ops, fingerprint = run_kernel(kernel, "default")
    assert ops > 0
    pin(_pin_name(kernel, "default"), fingerprint)


@pytest.mark.parametrize("base", ["put", "get"])
def test_instrumented_kernels_share_the_plain_fingerprint(base):
    """Tracing (full or live) must add zero simulated time."""
    plain = run_kernel(base, "tiny")
    assert run_kernel(f"{base}-traced", "tiny") == plain
    assert run_kernel(f"{base}-live", "tiny") == plain


def test_the_tiny_scan_kernel_is_partly_served_by_the_merged_view():
    """``kernel/tiny/scan`` pins both scan paths: the heap kernel until
    the sources have stood still for the view's payback, the view after."""
    store, seeks = _scanned_store(PRESETS["tiny"], levels=False)
    assert 0 < store.merged_view.served < seeks
