"""MemTables: skip lists in fixed-size arenas on DRAM or NVM.

Every store stages writes in a DRAM MemTable (NVM random-write bandwidth
is ~7x lower than DRAM's).  NoveLSM additionally keeps large *persistent*
MemTables on NVM -- same structure, different device, so inserts pay NVM
hop and write costs.
"""

from typing import Optional

from repro.persist.arena import Arena
from repro.sim.rng import XorShiftRng
from repro.skiplist.node import payload_bytes
from repro.skiplist.skiplist import SkipList


def memtable_entries(table: "MemTable"):
    """All versions in a MemTable as SSTable entries.

    Entries are ``(key, seq, value, value_bytes)`` already sorted by
    (key ascending, seq descending) -- the skip list's native order.
    """
    return [(n.key, n.seq, n.value, payload_bytes(n)) for n in table.skiplist.nodes()]


def priced_lookup(skiplist: SkipList, device, key: bytes):
    """Look up the newest version of ``key`` in a skip list on ``device``.

    Returns ``(node_or_None, seconds)``: the pointer chase plus, on a
    hit, reading the entry payload from the device.
    """
    node, hops = skiplist.lookup(key)
    seconds = device.search_time(max(hops, 1))
    if node is not None:
        seconds += device.read(node.nbytes, sequential=False)
    return node, seconds


class MemTable:
    """A bounded skip list staged on one device."""

    _ids = 0

    def __init__(
        self,
        system,
        capacity_bytes: int,
        rng: Optional[XorShiftRng] = None,
        device=None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"MemTable capacity must be positive: {capacity_bytes}")
        MemTable._ids += 1
        self.table_id = MemTable._ids
        self.system = system
        self.capacity_bytes = capacity_bytes
        #: The device holding the table (``system.dram`` by default).
        self.device = device or system.dram
        self.skiplist = SkipList(rng or XorShiftRng(0xA5F0 + self.table_id))
        self.arena = Arena(self.device, capacity_bytes, f"memtable-{self.table_id}")
        self.immutable = False
        #: Newest sequence number staged here (0 while empty): the WAL
        #: may be truncated through it once this table is flushed.
        self.last_seq = 0

    @property
    def data_bytes(self) -> int:
        """Bytes of live entries currently staged."""
        return self.skiplist.data_bytes

    @property
    def is_full(self) -> bool:
        """True once the arena budget is exhausted."""
        sl = self.skiplist
        return sl.data_bytes + sl.garbage_bytes >= self.capacity_bytes

    def insert(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        """Stage one write; returns the simulated device cost."""
        if self.immutable:
            raise ValueError("insert into an immutable MemTable")
        node, hops = self.skiplist.insert(key, seq, value, value_bytes)
        if seq > self.last_seq:
            self.last_seq = seq
        return self.device.insert_write(hops, node.nbytes)

    def get(self, key: bytes):
        """Look up the newest version; returns ``(node_or_None, cost)``."""
        return priced_lookup(self.skiplist, self.device, key)

    def rotate(self, rng: XorShiftRng) -> "MemTable":
        """Freeze this table prior to flushing; returns its empty successor."""
        self.immutable = True
        return MemTable(self.system, self.capacity_bytes, rng.fork(), self.device)

    def release(self) -> None:
        """Free the arena once flushing (and swizzling) completed."""
        self.arena.release()

    def __len__(self) -> int:
        return len(self.skiplist)

    def __repr__(self) -> str:
        state = "immutable" if self.immutable else "active"
        return (
            f"MemTable(#{self.table_id}, {self.data_bytes}B on "
            f"{self.device.name}, {state})"
        )
