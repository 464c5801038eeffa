"""Skip lists with sequence-numbered multi-version nodes.

This is the single data structure MioDB uses everywhere: DRAM MemTables,
NVM PMTables in the elastic buffer, and the huge PMTable data repository.
Nodes are ordered by (key ascending, sequence number descending), so the
newest version of a key is encountered first -- exactly the layout the
paper's zero-copy compaction (Section 4.3) relies on.

:class:`ZeroCopyMerge` implements the pointer-only merge with an insertion
mark; it is resumable so crash-recovery tests can stop it mid-merge.
"""

from repro.skiplist.node import MAX_HEIGHT, TOMBSTONE, Node
from repro.skiplist.skiplist import SkipList
from repro.skiplist.merge import ZeroCopyMerge

__all__ = [
    "Node",
    "SkipList",
    "ZeroCopyMerge",
    "TOMBSTONE",
    "MAX_HEIGHT",
]
