"""Reference oracles the engine's fast paths are held to."""

import bisect
from typing import Iterator, Tuple

from repro.obs.live.sampling import HEAD_RUN, _SPLITMIX_GAMMA, splitmix64


def range_from(tree, key: bytes) -> Iterator[Tuple[bytes, object]]:
    """A ``BPlusTree``'s ``(key, value)`` pairs with ``k >= key``, in order,
    along the leaf chain."""
    node = tree.root
    while not node.is_leaf:
        idx = bisect.bisect_right(node.keys, key)
        node = node.children[idx]
    idx = bisect.bisect_left(node.keys, key)
    while node is not None:
        while idx < len(node.keys):
            yield node.keys[idx], node.values[idx]
            idx += 1
        node = node.next_leaf
        idx = 0


def check_invariants(tree) -> None:
    """Raise AssertionError if a ``BPlusTree``'s structure is violated."""
    keys = [k for k, __ in range_from(tree, b"")]
    assert keys == sorted(keys), "leaf chain out of order"
    assert len(keys) == tree.size, "size counter drifted"
    _check_node(tree.root, None, None)


def _check_node(node, low, high) -> None:
    for key in node.keys:
        assert low is None or key >= low
        assert high is None or key < high
    if node.is_leaf:
        return
    assert len(node.children) == len(node.keys) + 1
    bounds = [low] + node.keys + [high]
    for i, child in enumerate(node.children):
        _check_node(child, bounds[i], bounds[i + 1])


def live_items(skiplist) -> Iterator[Tuple[bytes, object]]:
    """A skip list's newest live version per key, as ``(key, value)`` pairs."""
    last_key = None
    for node in skiplist.nodes():
        if node.key == last_key:
            continue
        last_key = node.key
        if not node.is_tombstone:
            yield node.key, node.value


def may_contain(pmtable, key: bytes):
    """A PMTable's bloom-filter gate; returns ``(possible, probe_cost)``.

    A definite miss short-circuits after ~2 hash probes; a "maybe"
    pays all k probes.  Saturated filters on big merged tables thus
    cost more per query *and* admit more false-positive searches --
    the effect that caps the useful level depth (paper Section 4.6).

    ``MioDB``'s read path applies this gate inline so that one get
    hashes its key once for every table; this per-table form is the
    reference it is held to (``tests/test_miodb_read_oracle.py``).
    """
    bloom = pmtable.bloom
    if bloom is None:
        return True, 0.0
    if bloom.saturation > 0.9:
        # After enough OR-merges the filter approves everything;
        # probing it is pure overhead, so fall through to the search.
        return True, 0.0
    possible = bloom.may_contain(key)
    probes = bloom.k if possible else 2
    return possible, pmtable.system.cpu.bloom_probe_time(probes)


def head_keep(seed: int, seq: int, rate: float, run_len: int = HEAD_RUN) -> bool:
    """Pure head-sampling decision for op ``seq`` at ``rate``.

    True iff the run of ``run_len`` consecutive ops containing ``seq``
    was drawn: the reference ``HeadSampler`` streams.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"head rate must be in [0, 1], got {rate}")
    if run_len < 1:
        raise ValueError(f"run_len must be >= 1, got {run_len}")
    threshold = int(rate * float(1 << 64))
    return splitmix64(seed ^ ((seq // run_len) * _SPLITMIX_GAMMA)) < threshold


def truncate_through_by_walk(wal, seq: int) -> int:
    """``WriteAheadLog.truncate_through`` as a walk over every retained
    record, rebuilding the list: the reference the bisected cut is held to."""
    kept = []
    freed = 0
    dropped_pending = False
    for record in wal._records:
        if record.seq <= seq:
            if record.synced:
                freed += record.frame_bytes
            else:
                dropped_pending = True
        else:
            kept.append(record)
    wal._records = kept
    if dropped_pending:
        wal._pending = [r for r in wal._pending if r.seq > seq]
        if not wal._pending:
            wal._window_start = None
    if freed:
        wal.device.release(freed)
    return freed
