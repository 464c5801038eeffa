"""The merged range scan shared by every store.

Fixed-size per-source windows under-collect when tombstones or duplicate
versions shadow entries, so a scan is one global k-way merge over *lazy*
per-source cursors: each source advances only as far as the merge needs,
and every advance is charged to the simulated clock as it happens.

A source is a plain tuple, listed newest-first by the caller:

* ``(skiplist, device)`` -- a MemTable, PMTable or repository skip
  list on the device holding it; its cursor is a bottom-level node.
* ``(entries, index, device)`` -- a sorted serialized run (SSTable,
  matrix row) positioned at ``entries[index]``; its cursor is the index.

The kernel does its own accounting, in one path.  Every read is charged
where it happens at the ``(latency, bandwidth)`` rate the device quotes
once per scan (``Device.seq_read_rate``), and its transfer event is
emitted right there when the device has a recorder; but a device's
``bytes_read`` / ``read_ops`` are committed once per scan, through
``Device.add_reads``, because nothing reads them mid-scan.  A
scan that raises commits no counters.
"""

from bisect import bisect_left
from heapq import heapify, heappop, heapreplace
from typing import List, Sequence, Tuple

from repro.skiplist.node import TOMBSTONE
from repro.sstable.table import entry_frame_bytes


def memtable_sources(*tables) -> List[tuple]:
    """Skip-list sources for the MemTables that exist, in the order given."""
    return [(table.skiplist, table.device) for table in tables if table is not None]


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
    ``(key, seq)`` heads leave in source order.  Each charge is the
    model's own expression: ``max(hops, 1) * (hop + compare)`` per seek,
    ``hop`` then ``latency + nbytes / bw`` per skip-list node, and
    ``latency + nbytes / bw`` then ``nbytes / deserialize_bw`` per run
    entry.
    """
    if count <= 0:
        return [], 0.0
    cpu = system.cpu
    compare = cpu.COMPARE_COST
    deserialize_bw = cpu.DESERIALIZE_BW
    seconds = 0.0
    heap = []
    # Per source, one constants tuple: (its run, or None for a skip list;
    # then its device's hop cost, read latency, read bandwidth, [bytes,
    # ops] tally, recorder, name).  Every skip list on a device shares
    # the device's tuple.
    devices = {}
    tallies = {}
    state = []
    for order, source in enumerate(sources):
        if len(source) == 2:
            skiplist, device = source
            run = None
        else:
            run, index, device = source
        terms = devices.get(device)
        if terms is None:
            name = device.name
            tally = tallies[device] = [0, 0]
            terms = devices[device] = (
                None, device.hop_time(), *device.seq_read_rate(),
                tally, device.obs, name,
            )
        __, hop, latency, bw, tally, obs, name = terms
        state.append(terms if run is None else (run,) + terms[1:])
        if run is None:
            frozen = skiplist.frozen_index()
            if frozen is None:
                node, hops = skiplist.first_ge(start_key)
            else:
                keys, nodes, hops_at = frozen
                p = bisect_left(keys, start_key)
                node = nodes[p] if p < len(nodes) else None
                hops = hops_at[p]
            seconds += (hops or 1) * (hop + compare)
            if node is None:
                continue
            nbytes = node.nbytes
            seconds += hop
            item = (node.key, -node.seq, order, node)
        else:
            if index >= len(run):
                continue
            head = run[index]
            nbytes = entry_frame_bytes(head)
            item = (head[0], -head[1], order, index)
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        spent = latency + nbytes / bw
        seconds += spent
        tally[0] += nbytes
        tally[1] += 1
        if obs is not None:
            obs.transfer(name, "read", nbytes, True, spent)
        if run is not None:
            seconds += nbytes / deserialize_bw
        heap.append(item)
    heapify(heap)
    out: List[tuple] = []
    append = out.append
    remaining = count
    last_key = None
    while heap:
        key, neg_seq, order, cursor = heap[0]
        run, hop, latency, bw, tally, obs, name = state[order]
        if key != last_key:
            last_key = key
            value = cursor.value if run is None else run[cursor][2]
            if value is not TOMBSTONE:
                append((key, value))
                remaining -= 1
                if not remaining:
                    break
        if run is None:
            cursor = cursor.next[0]
            if cursor is None:
                heappop(heap)
                continue
            nbytes = cursor.nbytes
            seconds += hop
            item = (cursor.key, -cursor.seq, order, cursor)
        else:
            cursor += 1
            if cursor == len(run):
                heappop(heap)
                continue
            head = run[cursor]
            nbytes = entry_frame_bytes(head)
            item = (head[0], -head[1], order, cursor)
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        spent = latency + nbytes / bw
        seconds += spent
        tally[0] += nbytes
        tally[1] += 1
        if obs is not None:
            obs.transfer(name, "read", nbytes, True, spent)
        if run is not None:
            seconds += nbytes / deserialize_bw
        heapreplace(heap, item)
    for device, (nbytes, ops) in tallies.items():
        device.add_reads(nbytes, ops)
    return out, seconds
