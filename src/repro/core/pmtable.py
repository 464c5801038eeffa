"""PMTable: a persistent skip list in the NVM elastic buffer.

A PMTable is created from a one-piece-flushed MemTable and then grows by
zero-copy merging: the merged table takes ownership of both inputs'
arenas (no data moved, so the memory cannot be returned until a lazy-copy
compaction reclaims it).  Each PMTable carries a fixed-size OR-mergeable
bloom filter sized for one MemTable's key budget.
"""

from typing import List, Optional

from repro.bloom.filter import BloomFilter
from repro.kvstore.memtable import priced_lookup
from repro.persist.arena import Arena
from repro.skiplist.skiplist import SkipList


class PMTable:
    """One persistent skip list plus its arenas and bloom filter."""

    _ids = 0

    def __init__(
        self,
        system,
        skiplist: SkipList,
        arenas: List[Arena],
        bloom: Optional[BloomFilter],
        level: int = 0,
    ) -> None:
        PMTable._ids += 1
        self.table_id = PMTable._ids
        self.system = system
        self.skiplist = skiplist
        self.arenas = arenas
        self.bloom = bloom
        self.level = level
        self.swizzled = False
        self.reclaimable = False
        self.busy = False  # reserved by a compaction job

    @property
    def entries(self) -> int:
        """Live (not yet shadow-dropped) versions in the table."""
        return self.skiplist.entries

    @property
    def data_bytes(self) -> int:
        """Live payload bytes."""
        return self.skiplist.data_bytes

    @property
    def footprint_bytes(self) -> int:
        """NVM bytes held (arenas), including unreclaimed garbage."""
        return sum(a.size for a in self.arenas if not a.released)

    def get(self, key: bytes):
        """Point lookup: NVM pointer chase plus payload read on a hit."""
        return priced_lookup(self.skiplist, self.system.nvm, key)

    def merge_bloom_from(self, other: "PMTable") -> None:
        """OR-merge ``other``'s bloom filter into this one.

        Done *before* the zero-copy merge moves any node: a bloom filter
        may only over-approximate, so widening early keeps every
        mid-merge read correct.
        """
        if self.bloom is not None and other.bloom is not None:
            self.bloom.merge_from(other.bloom)

    def absorb(self, other: "PMTable") -> None:
        """Take ownership of ``other``'s arenas after a completed merge."""
        self.arenas.extend(other.arenas)
        other.arenas = []
        other.reclaimable = True

    def reclaim(self) -> int:
        """Release every arena (after lazy-copy GC); returns bytes freed."""
        freed = 0
        for arena in self.arenas:
            freed += arena.release()
        self.reclaimable = True
        return freed

    def __repr__(self) -> str:
        return (
            f"PMTable(#{self.table_id}, L{self.level}, entries={self.entries}, "
            f"{self.footprint_bytes}B)"
        )
