"""MioDB's data repository (the bottom level, L(n)).

Two interchangeable backends:

- :class:`NvmRepository` -- the paper's default: one huge persistent skip
  list holding every unique, sorted KV pair.  Lazy-copy compaction copies
  the newest versions out of an L(n-1) PMTable into it (Section 4.4).
- :class:`SsdRepository` -- the DRAM-NVM-SSD mode (Section 5.4): the
  repository is ordinary leveled SSTables on the SSD; "lazy copy" becomes
  serialize-and-flush, and the elastic buffer absorbs the SSD's slowness.

MioDB builds the one its machine's ``bottom_tier`` names.  Both expose
``ingest(pmtable) -> (seconds, apply)`` where ``apply`` is the
visibility callback the compaction manager runs at job completion
(``None`` when the backend mutates eagerly, as the NVM skip list does).
"""

from typing import List, Optional, Tuple

from repro.baselines.lsm import LeveledLSM
from repro.kvstore.memtable import priced_lookup
from repro.persist.arena import Arena
from repro.sim.rng import XorShiftRng
from repro.skiplist.node import NODE_OVERHEAD_BYTES, TOMBSTONE, payload_bytes
from repro.skiplist.skiplist import SkipList


def newest_versions(skiplist: SkipList):
    """Yield the newest version node of each key, in key order."""
    last_key = None
    node = skiplist.head.next[0]
    while node is not None:
        if node.key != last_key:
            last_key = node.key
            yield node
        node = node.next[0]


class NvmRepository:
    """A huge persistent skip list in NVM."""

    def __init__(self, system) -> None:
        self.system = system
        self.skiplist = SkipList(XorShiftRng(0x4E50))
        self.arena = Arena(system.nvm, 0, "miodb-repository")

    @property
    def data_bytes(self) -> int:
        """Bytes of unique live pairs stored."""
        return self.skiplist.data_bytes

    @property
    def entry_count(self) -> int:
        return self.skiplist.entries

    def ingest(self, table) -> Tuple[float, Optional[callable]]:
        """Lazy-copy one PMTable into the repository (eager mutation).

        For each newest version: in-place update when the key exists,
        copy+insert otherwise; tombstones delete the repository node.
        Returns the simulated duration; visibility is immediate (the
        PMTable stays readable above until the manager retires it, so
        queries see duplicates, never gaps).
        """
        nvm = self.system.nvm
        skiplist = self.skiplist
        # The PMTable is a sorted run: one monotone cursor seek finds, per
        # key, both the repository's version and the insert position.
        cursor = skiplist.cursor()
        seek = cursor.seek
        link = cursor.link
        write = nvm.write
        grow = self.arena.grow
        shrink = self.arena.shrink
        unit = nvm.search_time(1)
        seconds = 0.0
        # newest_versions and payload_bytes, inlined: the first node of
        # each key is its newest version.
        node = table.skiplist.head.next[0]
        while node is not None:
            key = node.key
            after = node.next[0]
            while after is not None and after.key == key:
                after = after.next[0]
            preds, hops = seek(key, 1 << 62)
            search = (hops if hops > 1 else 1) * unit
            seconds += search
            existing = preds[0].next[0]
            if existing is not None and existing.key != key:
                existing = None
            value = node.value
            if value is TOMBSTONE:
                if existing is not None:
                    cursor.unlink_next(to_garbage=False)
                    seconds += write(8 * existing.height, False)
                    shrink(existing.nbytes)
            else:
                nbytes = node.nbytes - len(key) - NODE_OVERHEAD_BYTES
                if nbytes < 0:
                    nbytes = 0
                if existing is None:
                    # The key is absent, so the insert position is the
                    # seek's (no second descent); the model still charges
                    # the copy's own search, which would have paid the
                    # same hops.
                    new_node = link(key, node.seq, value, nbytes)
                    seconds += search
                    seconds += write(new_node.nbytes, False)
                    grow(new_node.nbytes)
                elif node.seq > existing.seq:
                    delta = skiplist.update_in_place(existing, node.seq, value, nbytes)
                    if delta > 0:
                        grow(delta)
                    elif delta < 0:
                        shrink(-delta)
                    seconds += write(existing.nbytes, False)
            node = after
        return seconds, None

    def get(self, key: bytes) -> Tuple[Optional[object], float]:
        """Point lookup; returns (value_or_TOMBSTONE_or_None, seconds)."""
        node, seconds = priced_lookup(self.skiplist, self.system.nvm, key)
        return (None if node is None else node.value), seconds

    def scan_sources(self, start_key: bytes) -> List[tuple]:
        """Sources for a merged scan (one: the huge skip list)."""
        return [(self.skiplist, self.system.nvm)]


class SsdRepository:
    """Leveled SSTables on the SSD as the repository backend."""

    def __init__(self, system, options) -> None:
        self.system = system
        self.lsm = LeveledLSM(
            system, options, system.bottom_tier, nworkers=1, label="miodb-ssd"
        )

    @property
    def data_bytes(self) -> int:
        return self.lsm.total_data_bytes()

    @property
    def entry_count(self) -> int:
        return sum(len(t) for level in self.lsm.levels for t in level)

    def ingest(self, table) -> Tuple[float, Optional[callable]]:
        """Serialize a PMTable's newest versions into SSD L0 tables."""
        entries = [
            (n.key, n.seq, n.value, payload_bytes(n))
            for n in newest_versions(table.skiplist)
        ]
        # One sorted run, one version per key: merging only splits it.
        outputs, seconds = self.lsm.merge(
            self.system.nvm.read(table.data_bytes, sequential=True),
            [entries], (), False, "miodb-ssd-L0",
        )

        def apply() -> None:
            for sst in outputs:
                self.lsm.add_table(0, sst)

        return seconds, apply

    def get(self, key: bytes) -> Tuple[Optional[object], float]:
        entry, seconds = self.lsm.get(key)
        if entry is None:
            return None, seconds
        return entry[2], seconds

    def scan_sources(self, start_key: bytes) -> List[tuple]:
        return self.lsm.scan_sources(start_key)
