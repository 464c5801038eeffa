"""Hash functions for bloom filters.

Double hashing (Kirsch & Mitzenmacher) derives k probe positions from two
independent 64-bit hashes, matching what LevelDB-family filters do.

The probe positions are pure functions of ``(key, k, nbits)`` and every
filter in a store shares one geometry (so compaction can OR-merge them).
A reader therefore asks for a key's positions *once* and tests them
against each table's filter (``BloomFilter.probe``); ``probe_positions``
is additionally memoised, so a key that is read again, or that a lazy
filter build already hashed, costs a dict hit.  Writers never come
here: a filter only hashes its keys when something first queries it.

The two hashes are FNV-1a under seeds 1 and 2.  ``fnv1a_pair`` steps
both in one Python integer, one lane per seed: the seed-1 state sits in
bits 0..63 and the seed-2 state 128 bits above it.  One
``(h ^ spread[byte]) * prime`` then multiplies both lanes at once,
because ``(a + b * 2**128) * p == a * p + (b * p) * 2**128`` and a
64-bit lane times the 41-bit FNV prime stays below ``2**105``, so the
low lane's product never reaches bit 128; masking each lane back to 64
bits is exactly the ``& MASK64`` of the one-lane loop.  Half the
bytecode per key byte, the same two integers out.

The hash values themselves are pinned (``tests/test_bloom_lazy.py``
holds the one-lane loop as the oracle) -- optimizing this module must
never change a probe position, or simulated false-positive behaviour
(and every figure) would shift.
"""

from functools import lru_cache

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# A seeded FNV-1a starts from OFFSET ^ (seed * golden-ratio); the two
# probe hashes are seeds 1 and 2 (fnv1a_64 itself is the unseeded hash).
_OFFSET_SEED1 = _FNV_OFFSET ^ (1 * 0x9E3779B97F4A7C15 & _MASK64)
_OFFSET_SEED2 = _FNV_OFFSET ^ (2 * 0x9E3779B97F4A7C15 & _MASK64)

# Lane packing for fnv1a_pair: seed 2 lives _LANE_SHIFT bits above seed 1.
_LANE_SHIFT = 128
_LANES = _MASK64 | (_MASK64 << _LANE_SHIFT)
_SEEDS = _OFFSET_SEED1 | (_OFFSET_SEED2 << _LANE_SHIFT)
_SPREAD = tuple(byte | (byte << _LANE_SHIFT) for byte in range(256))


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fnv1a_pair(data: bytes) -> "tuple":
    """Both probe hashes (seeds 1 and 2) in a single pass over ``data``.

    Bit-identical to two one-lane FNV-1a loops from those offsets; both
    states advance in one lane-packed integer (see the module docstring).
    """
    h = _SEEDS
    spread = _SPREAD
    prime = _FNV_PRIME
    lanes = _LANES
    for byte in data:
        h = ((h ^ spread[byte]) * prime) & lanes
    return h & _MASK64, h >> _LANE_SHIFT


@lru_cache(maxsize=1 << 16)
def probe_positions(key: bytes, k: int, nbits: int) -> "tuple":
    """Memoised ``k`` probe positions in ``[0, nbits)`` for ``key``."""
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    h1, h2 = fnv1a_pair(key)
    h2 |= 1  # odd stride hits all positions
    return tuple([((h1 + i * h2) & _MASK64) % nbits for i in range(k)])
