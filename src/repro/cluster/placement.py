"""Shard placement: a consistent-hash ring with virtual nodes.

Each shard owns several points on a 64-bit ring; a key is served by the
shard owning the first point at or after the key's hash (wrapping).
Virtual nodes smooth ownership, and rebalancing is an ownership move of
individual ring arcs.  The ring is a pure function of its construction
parameters and the moves applied to it, so routing is deterministic and
identical across runs.
"""

import bisect
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.bloom.hashing import fnv1a_64
from repro.kvstore.api import require_count
from repro.sim.rng import mix64


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


class HashRingPlacement:
    """Consistent-hash ring with virtual nodes.

    Ring points are ``ring_hash(b"vnode-<shard>-<replica>")``; a key
    hashes to ``ring_hash(key)`` and is owned by the first point at or
    after it (wrapping past the top of the ring).  Ownership of any
    point can be reassigned with :meth:`move_slot` -- the rebalance
    primitive.
    """

    #: The ``policy`` field of :meth:`describe`.
    name = "hash-ring"

    def __init__(self, n_shards: int, vnodes_per_shard: int = 32) -> None:
        require_count(n_shards, "n_shards")
        require_count(vnodes_per_shard, "vnodes_per_shard")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if vnodes_per_shard < 1:
            raise ValueError(
                f"vnodes_per_shard must be >= 1, got {vnodes_per_shard}"
            )
        self.n_shards = n_shards
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
        """``(point, shard)`` for ``key``.

        The *point* is the ring arc the key fell into; routers count
        traffic per point, the granularity rebalancing moves.
        """
        h = ring_hash(key)
        idx = bisect.bisect_left(self._points, h)
        if idx == len(self._points):
            idx = 0  # wrap
        point = self._points[idx]
        return point, self._owner[point]

    def shard_for(self, key: bytes) -> int:
        """The shard serving ``key``."""
        return self.locate(key)[1]

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
        """A JSON-friendly description of the current ownership map."""
        return {
            "policy": self.name,
            "n_shards": self.n_shards,
            "vnodes_per_shard": self.vnodes_per_shard,
            "slots_per_shard": {
                str(shard): len(self.slots_of(shard))
                for shard in range(self.n_shards)
            },
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_shards={self.n_shards})"
