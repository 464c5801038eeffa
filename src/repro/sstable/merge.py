"""K-way merging of sorted entry streams for compaction."""

import heapq
from typing import Iterable, Iterator, Sequence

from repro.sstable.table import Entry


def merge_entry_streams(
    streams: Sequence[Iterable[Entry]],
    drop_shadowed: bool = True,
    drop_tombstones: bool = False,
    tombstone=None,
) -> Iterator[Entry]:
    """Merge entry streams sorted by (key, -seq) into one such stream.

    Earlier streams win ties only through sequence numbers -- sequence
    numbers are globally unique, so ordering is total.  With
    ``drop_shadowed`` only the newest version of each key survives (the
    normal compaction behaviour); ``drop_tombstones`` additionally removes
    delete markers (legal only when merging into the bottom level).
    """

    def keyed(stream):
        for key, seq, value, vbytes in stream:
            yield (key, -seq), (key, seq, value, vbytes)

    merged = heapq.merge(*[keyed(s) for s in streams])
    last_key = None
    for __, entry in merged:
        key, __, value, __ = entry
        if drop_shadowed and key == last_key:
            continue
        last_key = key
        if drop_tombstones and value is tombstone:
            continue
        yield entry

