"""K-way merging of sorted entry streams for compaction."""

from itertools import chain, compress
from operator import itemgetter, ne
from typing import Iterable, List, Sequence

from repro.skiplist.node import TOMBSTONE
from repro.sstable.table import Entry

_KEY = itemgetter(0)
_SEQ = itemgetter(1)


def merge_entry_streams(
    streams: Sequence[Iterable[Entry]], drop_tombstones: bool = False
) -> List[Entry]:
    """Merge entry streams sorted by (key, -seq), keeping each key's
    newest version, into one such list.

    Sequence numbers are globally unique, so two stable sorts (seq
    descending, then key ascending) give the merged order without a
    per-entry comparison in Python.  ``drop_tombstones`` also removes
    delete markers (legal only when merging into the bottom level).
    """
    if len(streams) == 1:
        run = list(streams[0])
    else:
        run = list(chain.from_iterable(streams))
        run.sort(key=_SEQ, reverse=True)
        run.sort(key=_KEY)
    keys = list(map(_KEY, run))
    # The first entry of each key run is its newest version.
    newest = list(compress(run, map(ne, keys, [None] + keys)))
    if drop_tombstones:
        return [e for e in newest if e[2] is not TOMBSTONE]
    return newest
