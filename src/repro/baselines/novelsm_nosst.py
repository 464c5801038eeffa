"""NoveLSM-NoSST: one big persistent skip list, no SSTables at all.

The paper's Figure 7 includes this configuration: every operation works
in place on a single NVM-resident skip list.  Updates pay a long NVM
pointer chase (log of the entire dataset) and a random NVM write; point
and range reads are served directly from the sorted list, which is why it
wins the scan-dominant workload E.
"""

from typing import List, Optional, Tuple

from repro.kvstore.api import KVStore
from repro.kvstore.memtable import priced_lookup
from repro.kvstore.options import StoreOptions
from repro.persist.arena import Arena
from repro.sim.rng import XorShiftRng
from repro.skiplist.skiplist import SkipList


class NoveLSMNoSSTStore(KVStore):
    """All data in one mutable persistent skip list in NVM."""

    name = "novelsm-nosst"

    def __init__(self, system, options: Optional[StoreOptions] = None) -> None:
        super().__init__(system, options or StoreOptions())
        self.skiplist = SkipList(XorShiftRng(0x0557))
        self.arena = Arena(system.nvm, 0, f"{self.name}-heap")

    def _put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        node, hops = self.skiplist.insert(key, seq, value, value_bytes)
        self.arena.grow(node.nbytes)
        seconds = self.system.nvm.insert_write(hops, node.nbytes)
        # In-place shadowing: older versions of the key are dropped
        # immediately (the structure is its own storage; no compaction).
        dropped = self._drop_older_versions(node)
        seconds += dropped * self.system.nvm.hop_time()
        return seconds

    def _drop_older_versions(self, node) -> int:
        dropped = 0
        while True:
            dup = node.next[0]
            if dup is None or dup.key != node.key:
                return dropped
            preds = self.skiplist.predecessors_of(dup)
            self.skiplist.unlink(dup, preds, to_garbage=False)
            self.arena.shrink(dup.nbytes)
            dropped += 1

    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        node, seconds = priced_lookup(self.skiplist, self.system.nvm, key)
        return (None if node is None else node.value), seconds

    def _scan(self, start_key: bytes, count: int):
        node, hops = self.skiplist.seek(start_key)
        seconds = self.system.nvm.search_time(max(hops, 1))
        hop = self.system.nvm.hop_time()
        pairs: List[Tuple[bytes, object]] = []
        touched = 0
        last_key = None
        while node is not None and len(pairs) < count:
            if node.key != last_key:
                last_key = node.key
                if not node.is_tombstone:
                    pairs.append((node.key, node.value))
                    touched += node.nbytes
            node = node.next[0]
            seconds += hop
        seconds += self.system.nvm.read(touched, sequential=True)
        return pairs, seconds
