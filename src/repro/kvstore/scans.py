"""The merged range scan shared by every store.

Fixed-size per-source windows under-collect when tombstones or duplicate
versions shadow entries, so a scan is one global k-way merge over *lazy*
per-source cursors: each source advances only as far as the merge needs,
and every advance is charged to the simulated clock as it happens.

A source is a plain tuple, listed newest-first by the caller:

* ``(skiplist, placement)`` -- a MemTable, PMTable or repository skip
  list on ``"dram"`` or ``"nvm"``; its cursor is a bottom-level node.
* ``(entries, index, device)`` -- a sorted serialized run (SSTable,
  matrix row) positioned at ``entries[index]``; its cursor is the index.
"""

from heapq import heapify, heappop, heapreplace
from typing import List, Sequence, Tuple

from repro.skiplist.node import TOMBSTONE
from repro.sstable.table import entry_frame_bytes


def memtable_sources(*tables) -> List[tuple]:
    """Skip-list sources for the MemTables that exist, in the order given."""
    return [(table.skiplist, table.placement) for table in tables if table is not None]


def merged_scan(
    system,
    start_key: bytes,
    count: int,
    sources: Sequence[tuple],
) -> Tuple[List[tuple], float]:
    """Newest live version per key from ``start_key``, up to ``count`` keys.

    Returns ``(pairs, seconds)`` with ``(key, value)`` pairs.  Tombstones
    shadow older versions and produce no output.

    The simulated cost is order-sensitive (float addition, traced device
    transfers), so the contract is exact: seeks are charged source by
    source in the order given, each followed by the read of that
    source's head; a source advances -- and is charged -- only when the
    merge needs its next item, never after the ``count``-th pair; equal
    ``(key, seq)`` heads leave in source order.
    """
    if count <= 0:
        return [], 0.0
    cpu = system.cpu
    deserialize_time = cpu.deserialize_time
    seconds = 0.0
    heap = []
    # Per source: (run entries or None for a skip list, hop cost, device.read).
    state = []
    for source in sources:
        order = len(state)
        if len(source) == 2:
            skiplist, placement = source
            node, hops = skiplist.seek(start_key)
            seconds += cpu.skiplist_search_time(placement, max(hops, 1))
            hop = cpu.hop_time(placement)
            read = (system.dram if placement == "dram" else system.nvm).read
            state.append((None, hop, read))
            if node is not None:
                seconds += hop
                seconds += read(node.nbytes)
                heap.append((node.key, -node.seq, order, node))
        else:
            run, index, device = source
            read = device.read
            state.append((run, 0.0, read))
            if index < len(run):
                head = run[index]
                nbytes = entry_frame_bytes(head)
                seconds += read(nbytes)
                seconds += deserialize_time(nbytes)
                heap.append((head[0], -head[1], order, index))
    heapify(heap)
    out: List[tuple] = []
    last_key = None
    while heap:
        key, neg_seq, order, cursor = heap[0]
        run, hop, read = state[order]
        if key != last_key:
            last_key = key
            value = cursor.value if run is None else run[cursor][2]
            if value is not TOMBSTONE:
                out.append((key, value))
                if len(out) >= count:
                    break
        if run is None:
            cursor = cursor.next[0]
            if cursor is None:
                heappop(heap)
            else:
                seconds += hop
                seconds += read(cursor.nbytes)
                heapreplace(heap, (cursor.key, -cursor.seq, order, cursor))
        else:
            cursor += 1
            if cursor == len(run):
                heappop(heap)
            else:
                head = run[cursor]
                nbytes = entry_frame_bytes(head)
                seconds += read(nbytes)
                seconds += deserialize_time(nbytes)
                heapreplace(heap, (head[0], -head[1], order, cursor))
    return out, seconds
