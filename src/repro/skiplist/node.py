"""Skip-list nodes and their accounted sizes."""

from typing import List, Optional

MAX_HEIGHT = 12
BRANCHING = 4

# Per-node metadata the cost model charges when a node is materialised:
# the tower pointers, key/seq headers, and allocator overhead.
NODE_OVERHEAD_BYTES = 64


class _Tombstone:
    """Sentinel value marking a deleted key (kept until compaction)."""

    def __repr__(self) -> str:
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class Node:
    """One version of one key.

    ``nbytes`` is the entry's accounted size (key + value + overhead) in
    *simulated* bytes; benchmarks use nominal value sizes far larger than
    the in-interpreter payload.
    """

    __slots__ = ("key", "seq", "value", "nbytes", "height", "next")

    def __init__(self, key: bytes, seq: int, value, nbytes: int, height: int) -> None:
        if height < 1 or height > MAX_HEIGHT:
            raise ValueError(f"node height out of range: {height}")
        self.key = key
        self.seq = seq
        self.value = value
        self.nbytes = nbytes
        # Plain slot, not a property: the flush/merge paths read `height`
        # hundreds of thousands of times per workload, and the tower
        # length never changes after construction.
        self.height = height
        self.next: List[Optional["Node"]] = [None] * height

    @property
    def is_tombstone(self) -> bool:
        """True when this version records a delete."""
        return self.value is TOMBSTONE

    # repro: allow[DEAD001] the order SkipList._find_predecessors inlines, stated once
    def precedes(self, key: bytes, seq: int) -> bool:
        """Ordering test: does this node sort before (key, seq)?

        Keys ascend; among equal keys, larger sequence numbers (newer
        versions) come first.
        """
        if self.key != key:
            return self.key < key
        return self.seq > seq

    def __repr__(self) -> str:
        return f"Node({self.key!r}, seq={self.seq}, h={self.height})"


def payload_bytes(node: Node) -> int:
    """The value bytes ``node`` was staged with: its accounted size less
    the key and :data:`NODE_OVERHEAD_BYTES` (0 for a tombstone)."""
    return max(0, node.nbytes - len(node.key) - NODE_OVERHEAD_BYTES)
