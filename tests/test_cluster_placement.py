"""Tests for shard placement (the consistent-hash ring)."""

import pytest

from repro.cluster import HashRingPlacement
from repro.cluster.placement import ring_hash
from repro.workloads.keys import key_for

pytestmark = pytest.mark.cluster_smoke


def test_ring_hash_spreads_sequential_keys():
    # Sequential keys differ only in trailing digits; the finalizer must
    # still spread them across the 64-bit space (this is the property
    # plain FNV-1a lacks and the ring's balance depends on).
    hashes = sorted(ring_hash(key_for(i)) for i in range(1000))
    span = 1 << 64
    largest_gap = max(
        (b - a for a, b in zip(hashes, hashes[1:])),
        default=span,
    )
    assert largest_gap < span // 50


def test_hash_ring_balance_uniform_keys():
    placement = HashRingPlacement(4)
    counts = [0] * 4
    for i in range(8000):
        counts[placement.shard_for(key_for(i))] += 1
    assert min(counts) > 0.5 * (8000 / 4)
    assert max(counts) < 1.6 * (8000 / 4)


def test_hash_ring_deterministic():
    a = HashRingPlacement(4)
    b = HashRingPlacement(4)
    for i in range(500):
        assert a.locate(key_for(i)) == b.locate(key_for(i))


def test_hash_ring_slots_partition_the_ring():
    placement = HashRingPlacement(3, vnodes_per_shard=8)
    slots = [p for shard in range(3) for p in placement.slots_of(shard)]
    assert sorted(slots) == placement._points
    assert len(slots) == 3 * 8


def test_move_slot_reroutes_only_that_arc():
    placement = HashRingPlacement(4)
    keys = [key_for(i) for i in range(2000)]
    before = {k: placement.locate(k) for k in keys}
    victim = placement.slots_of(0)[0]
    assert placement.move_slot(victim, 2) == 0
    for k in keys:
        slot, shard = placement.locate(k)
        if before[k][0] == victim:
            assert shard == 2
        else:
            assert (slot, shard) == before[k]


def test_move_slot_validation():
    placement = HashRingPlacement(2)
    with pytest.raises(KeyError):
        placement.move_slot(12345, 1)
    with pytest.raises(ValueError):
        placement.move_slot(placement._points[0], 2)


def test_describe_is_json_friendly():
    import json

    placement = HashRingPlacement(4)
    doc = placement.describe()
    assert doc["policy"] == placement.name == "hash-ring"
    json.dumps(doc)
