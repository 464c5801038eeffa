"""SSTable representation, building, and point reads."""

import bisect
from functools import partial
from operator import add, itemgetter, lt
from typing import Iterator, List, Optional, Sequence, Tuple

BLOCK_BYTES = 4096

# Per-entry framing inside a block: shared-prefix headers, restarts, CRC.
ENTRY_OVERHEAD_BYTES = 24

#: An entry is ``(key, seq, value, value_bytes)`` sorted by (key, -seq).
Entry = Tuple[bytes, int, object, int]


def entry_frame_bytes(entry: Entry) -> int:
    """On-media size of one serialized entry."""
    key, __, __, value_bytes = entry
    return len(key) + value_bytes + ENTRY_OVERHEAD_BYTES


_KEY = itemgetter(0)
_VALUE_BYTES = itemgetter(3)


def frame_sizes(entries: Sequence[Entry]) -> Iterator[int]:
    """``entry_frame_bytes`` of each entry of a run, computed in C."""
    return map(
        partial(add, ENTRY_OVERHEAD_BYTES),
        map(add, map(len, map(_KEY, entries)), map(_VALUE_BYTES, entries)),
    )


def run_bytes(entries: Sequence[Entry]) -> int:
    """On-media size of a serialized run of entries."""
    return sum(frame_sizes(entries))


class SSTable:
    """An immutable sorted run on a persistent device."""

    _ids = 0

    def __init__(self, entries: Sequence[Entry], device, label: str = "") -> None:
        if not entries:
            raise ValueError("an SSTable cannot be empty")
        keys = list(map(_KEY, entries))
        # Distinct ascending keys is the common case; a run holding
        # several versions of a key checks (key, -seq) pair by pair.
        if not all(map(lt, keys, keys[1:])):
            for prev, cur in zip(entries, entries[1:]):
                if not (prev[0] < cur[0] or (prev[0] == cur[0] and prev[1] > cur[1])):
                    raise ValueError("SSTable entries not sorted by (key, -seq)")
        SSTable._ids += 1
        self.table_id = SSTable._ids
        self.entries: List[Entry] = list(entries)
        self.device = device
        self.label = label or f"sst-{self.table_id}"
        self.keys = keys
        self.data_bytes = run_bytes(self.entries)
        self.min_key = self.entries[0][0]
        self.max_key = self.entries[-1][0]
        self.released = False
        #: Key filter, attached by an engine that builds one (LeveledLSM).
        self.bloom = None
        device.allocate(self.data_bytes)

    def release(self) -> int:
        """Free the table's space after compaction; idempotent."""
        if self.released:
            return 0
        self.device.release(self.data_bytes)
        self.released = True
        return self.data_bytes

    def overlaps(self, min_key: bytes, max_key: bytes) -> bool:
        """Key-range overlap test used when picking compaction inputs."""
        return not (self.max_key < min_key or max_key < self.min_key)

    def get(self, key: bytes, cpu, stats=None) -> Tuple[Optional[Entry], float]:
        """Point lookup: returns the newest entry for ``key`` and its cost.

        Cost = one random block read (plus the value bytes, for large
        values spanning blocks) + deserialization of the bytes read.
        This is the per-read deserialization cost the paper measures at
        50-59% of total read time in the baselines; when ``stats`` is
        given, the deserialization share is recorded under
        ``deserialize.time_s``.
        """
        if self.released:
            raise ValueError(f"read from released SSTable {self.label}")
        idx = bisect.bisect_left(self.keys, key)
        found: Optional[Entry] = None
        if idx < len(self.entries) and self.entries[idx][0] == key:
            found = self.entries[idx]
        read_bytes = BLOCK_BYTES
        if found is not None:
            read_bytes = max(BLOCK_BYTES, entry_frame_bytes(found))
        deser = cpu.deserialize_time(read_bytes)
        if stats is not None:
            stats.add("deserialize.time_s", deser)
        seconds = self.device.read(read_bytes, sequential=False)
        return found, seconds + deser

    def scan_all(self, cpu) -> Tuple[List[Entry], float]:
        """Sequential full read (compaction input): returns entries + cost."""
        if self.released:
            raise ValueError(f"scan of released SSTable {self.label}")
        seconds = self.device.read(self.data_bytes, sequential=True)
        seconds += cpu.deserialize_time(self.data_bytes)
        return self.entries, seconds

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"SSTable({self.label!r}, n={len(self.entries)}, "
            f"{self.data_bytes}B on {self.device.name})"
        )


def build_sstable(
    entries: Sequence[Entry], device, cpu, label: str = ""
) -> Tuple[SSTable, float]:
    """Serialize ``entries`` into a new table on ``device``.

    Returns the table and the simulated build duration (CPU serialization
    + one sequential device write of the full table).
    """
    table = SSTable(entries, device, label)
    seconds = cpu.serialize_time(table.data_bytes)
    seconds += device.write(table.data_bytes, sequential=True)
    return table, seconds
