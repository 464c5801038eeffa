"""Mergeable bloom filters (paper Section 4.6).

MioDB assigns a fixed-size bloom filter to every PMTable so a point query
can skip tables that cannot contain the key.  Filters of compacted tables
are merged with a bitwise OR, which is why every filter in one store uses
the same size and hash family.
"""

from repro.bloom.filter import BloomFilter
from repro.bloom.hashing import fnv1a_64, fnv1a_pair, probe_positions

__all__ = [
    "BloomFilter",
    "fnv1a_64",
    "fnv1a_pair",
    "probe_positions",
]
