"""Shard placement policies.

A placement policy maps every key to exactly one shard.  Two policies
are provided:

- :class:`HashRingPlacement` -- a consistent-hash ring with virtual
  nodes.  Each shard owns several points on a 64-bit ring; a key is
  served by the shard owning the first point at or after the key's
  hash (wrapping).  Virtual nodes smooth ownership, and rebalancing is
  an ownership move of individual ring arcs.
- :class:`RangePlacement` -- static range partitioning by key bytes:
  ``boundaries[i]`` is the first key of shard ``i + 1``.  Preserves key
  locality (scans mostly hit one shard) but cannot rebalance.

Both are pure functions of their construction parameters, so routing is
deterministic and identical across runs.
"""

import bisect
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.bloom.hashing import fnv1a_64
from repro.sim.rng import mix64
from repro.workloads.keys import key_for


@lru_cache(maxsize=2048)
def ring_hash(data: bytes) -> int:
    """64-bit ring position of ``data``.

    FNV-1a alone has weak avalanche on trailing-byte differences, so
    sequential keys (``user...0001``, ``user...0002``) and vnode labels
    would cluster into tight runs and defeat the ring's balancing.  A
    splitmix64 finalizer spreads them over the full 64-bit space.

    Memoised because the router hashes every routed op's key and real
    (skewed) traffic repeats keys; the bound keeps the memo near 0.5 MB.
    """
    return mix64(fnv1a_64(data))


class PlacementPolicy(ABC):
    """Maps keys to shard ids in ``[0, n_shards)``."""

    #: Registry name ("hash-ring", "range").
    name = "abstract"

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards

    @abstractmethod
    def locate(self, key: bytes) -> Tuple[int, int]:
        """``(slot, shard)`` for ``key``.

        The *slot* identifies the ownership unit the key fell into (a
        ring point for the hash ring, a range index for range
        partitioning); routers use it to attribute traffic at the
        granularity rebalancing can actually move.
        """

    def shard_for(self, key: bytes) -> int:
        """The shard serving ``key``."""
        return self.locate(key)[1]

    @abstractmethod
    def describe(self) -> dict:
        """A JSON-friendly description of the current ownership map."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_shards={self.n_shards})"


class HashRingPlacement(PlacementPolicy):
    """Consistent-hash ring with virtual nodes.

    Ring points are ``fnv1a_64(b"vnode-<shard>-<replica>")``; a key
    hashes to ``fnv1a_64(key)`` and is owned by the first point at or
    after it (wrapping past the top of the ring).  Ownership of any
    point can be reassigned with :meth:`move_slot` -- the rebalance
    primitive.
    """

    name = "hash-ring"

    def __init__(self, n_shards: int, vnodes_per_shard: int = 32) -> None:
        super().__init__(n_shards)
        if vnodes_per_shard < 1:
            raise ValueError(
                f"vnodes_per_shard must be >= 1, got {vnodes_per_shard}"
            )
        self.vnodes_per_shard = vnodes_per_shard
        points: Dict[int, int] = {}
        for shard in range(n_shards):
            for replica in range(vnodes_per_shard):
                point = ring_hash(b"vnode-%d-%d" % (shard, replica))
                # A full 64-bit hash collision between vnode labels is
                # effectively impossible; keep the first owner if it happens.
                points.setdefault(point, shard)
        self._points: List[int] = sorted(points)
        self._owner: Dict[int, int] = points

    def locate(self, key: bytes) -> Tuple[int, int]:
        h = ring_hash(key)
        idx = bisect.bisect_left(self._points, h)
        if idx == len(self._points):
            idx = 0  # wrap
        point = self._points[idx]
        return point, self._owner[point]

    def slots_of(self, shard: int) -> List[int]:
        """The ring points currently owned by ``shard``, ascending."""
        return [p for p in self._points if self._owner[p] == shard]

    def move_slot(self, point: int, to_shard: int) -> int:
        """Reassign ring point ``point`` to ``to_shard``.

        Returns the previous owner.  This changes only the ownership
        map; migrating the keys that now route elsewhere is the
        caller's job (see :mod:`repro.cluster.rebalance`).
        """
        if point not in self._owner:
            raise KeyError(f"no ring point {point!r}")
        if not 0 <= to_shard < self.n_shards:
            raise ValueError(f"shard {to_shard} out of range")
        previous = self._owner[point]
        self._owner[point] = to_shard
        return previous

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "n_shards": self.n_shards,
            "vnodes_per_shard": self.vnodes_per_shard,
            "slots_per_shard": {
                str(shard): len(self.slots_of(shard))
                for shard in range(self.n_shards)
            },
        }


class RangePlacement(PlacementPolicy):
    """Static range partitioning: ``boundaries[i]`` starts shard ``i+1``.

    Keys below ``boundaries[0]`` go to shard 0, and so on.  Boundaries
    are fixed at construction -- this policy documents the baseline the
    hash ring's rebalance is compared against.
    """

    name = "range"

    def __init__(self, n_shards: int, boundaries: List[bytes]) -> None:
        super().__init__(n_shards)
        if len(boundaries) != n_shards - 1:
            raise ValueError(
                f"need {n_shards - 1} boundaries for {n_shards} shards, "
                f"got {len(boundaries)}"
            )
        if list(boundaries) != sorted(boundaries):
            raise ValueError("boundaries must be ascending")
        self.boundaries = list(boundaries)

    @classmethod
    def for_key_space(cls, n_shards: int, key_space: int) -> "RangePlacement":
        """Even split of the canonical ``key_for`` key space."""
        if key_space < n_shards:
            raise ValueError(
                f"key_space {key_space} smaller than n_shards {n_shards}"
            )
        boundaries = [
            key_for(i * key_space // n_shards) for i in range(1, n_shards)
        ]
        return cls(n_shards, boundaries)

    def locate(self, key: bytes) -> Tuple[int, int]:
        shard = bisect.bisect_right(self.boundaries, key)
        return shard, shard

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "n_shards": self.n_shards,
            "boundaries": [b.decode("latin-1") for b in self.boundaries],
        }


#: Registry of placement policy names, surfaced by ``repro info``.
PLACEMENT_POLICIES: Dict[str, type] = {
    HashRingPlacement.name: HashRingPlacement,
    RangePlacement.name: RangePlacement,
}


def make_placement(
    name: str,
    n_shards: int,
    key_space: Optional[int] = None,
    vnodes_per_shard: int = 32,
) -> PlacementPolicy:
    """Build a placement policy by registry name.

    ``key_space`` is required for ``"range"`` (the static split needs to
    know the canonical key universe); ``vnodes_per_shard`` only applies
    to ``"hash-ring"``.
    """
    if name == HashRingPlacement.name:
        return HashRingPlacement(n_shards, vnodes_per_shard=vnodes_per_shard)
    if name == RangePlacement.name:
        if key_space is None:
            raise ValueError("range placement needs key_space")
        return RangePlacement.for_key_space(n_shards, key_space)
    raise ValueError(
        f"unknown placement {name!r}; choose from {sorted(PLACEMENT_POLICIES)}"
    )
