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

:class:`MergedView` memoises the merge of the sources that stand still;
the same loop merges the sources that take writes live beside it.
"""

import math
from array import array
from bisect import bisect_left
from functools import reduce
from heapq import heapify, heappop, heapreplace
from itertools import accumulate, repeat
from operator import add, attrgetter, eq, mul
from typing import List, Optional, Sequence, Tuple

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
    indexes: Optional[Sequence] = None,
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

    ``indexes``, when given, holds each skip-list source's
    ``frozen_index()`` as the caller already captured it for this scan,
    aligned with ``sources``; the kernel then asks no list again.
    """
    return _merge(system, start_key, count, sources, indexes, None, None)


def _merge(system, start_key, count, sources, indexes, columns, roles):
    """:func:`merged_scan`, with a :class:`MergedView`'s members from ``columns``."""
    if count <= 0:
        return [], 0.0
    compare = system.cpu.COMPARE_COST
    deserialize_bw = system.cpu.DESERIALIZE_BW
    seconds = 0.0
    heap = []
    # Per live source, its heap items' last field: (its run or None, then
    # its device's hop cost, read latency, read bandwidth, [bytes, ops]
    # tally, recorder and the device), shared by a device's skip lists.
    devices = {}
    start = 0  # the members' merged start position
    if columns is None:
        roles = repeat(None)
    else:
        terms, live, live_nodes, reads = columns
        head_bytes = [0] * len(reads)
        head_ops = [0] * len(reads)
    for order, (source, role) in enumerate(zip(sources, roles)):
        if role is not None:
            slot, hop, latency, bw = role
            keys, nodes, hops_at = indexes[order]
            p = bisect_left(keys, start_key)
            start += p
            seconds += (hops_at[p] or 1) * (hop + compare)
            if p < len(nodes):
                nbytes = nodes[p].nbytes
                seconds += hop
                seconds += latency + nbytes / bw
                head_bytes[slot] += nbytes
                head_ops[slot] += 1
            continue
        if len(source) == 2:
            skiplist, device = source
            run = None
        else:
            run, index, device = source
        quote = devices.get(device)
        if quote is None:
            quote = devices[device] = (
                None, device.hop_time(), *device.seq_read_rate(),
                [0, 0], device.obs, device,
            )
        __, hop, latency, bw, tally, obs, __ = quote
        if run is None:
            frozen = skiplist.frozen_index() if indexes is None else indexes[order]
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
            item = (node.key, -node.seq, order, node, quote)
        else:
            if index >= len(run):
                continue
            head = run[index]
            nbytes = entry_frame_bytes(head)
            item = (head[0], -head[1], order, index, (run,) + quote[1:])
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        spent = latency + nbytes / bw
        seconds += spent
        tally[0] += nbytes
        tally[1] += 1
        if obs is not None:
            obs.transfer(device.name, "read", nbytes, True, spent)
        if run is not None:
            seconds += nbytes / deserialize_bw
        heap.append(item)
    heapify(heap)
    out: List[tuple] = []
    append = out.append
    remaining = count
    last_key = None
    pos = start
    while heap or columns is not None:
        if columns is not None:
            # The member step: members from ``pos`` up to the next live
            # item's rank, the count or the end; the version at ``pos``
            # is skipped when it opens the key the last live item decided.
            first = live[pos] + (
                last_key is not None and pos < len(live) - 1
                and live[pos + 1] != live[pos]
                and live_nodes[live[pos]].key == last_key
            )
            stop = first + remaining
            if stop <= len(live_nodes):
                end = bisect_left(live, stop, pos) - 1
            else:
                end = len(live) - 1
            if heap:
                key, neg_seq, order, cursor, const = heap[0]
                if stop <= len(live_nodes) and key > live_nodes[stop - 1].key:
                    at = end + 1
                else:
                    at, ahead = _rank(indexes, roles, key, neg_seq, order)
            if not heap or at > end:
                # The members alone reach the count, or the end.
                out += map(_pair, live_nodes[first:stop])
                seconds = reduce(add, terms[2 * pos:2 * end], seconds)
                pos = end
                break
            if at > pos:
                cut = live[at]
                out += map(_pair, live_nodes[first:cut])
                remaining -= cut - first
                seconds = reduce(add, terms[2 * pos:2 * at], seconds)
                pos = at
            if ahead:
                last_key = key  # a member version decided the key
        else:
            key, neg_seq, order, cursor, const = heap[0]
        run, hop, latency, bw, tally, obs, device = const
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
            item = (cursor.key, -cursor.seq, order, cursor, const)
        else:
            cursor += 1
            if cursor == len(run):
                heappop(heap)
                continue
            head = run[cursor]
            nbytes = entry_frame_bytes(head)
            item = (head[0], -head[1], order, cursor, const)
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        spent = latency + nbytes / bw
        seconds += spent
        tally[0] += nbytes
        tally[1] += 1
        if obs is not None:
            obs.transfer(device.name, "read", nbytes, True, spent)
        if run is not None:
            seconds += nbytes / deserialize_bw
        heapreplace(heap, item)
    if columns is not None:
        for slot, (device, bytes_at, ops_at) in enumerate(reads):
            device.add_reads(
                head_bytes[slot] + bytes_at[pos] - bytes_at[start],
                head_ops[slot] + ops_at[pos] - ops_at[start],
            )
    for device, quote in devices.items():
        device.add_reads(*quote[4])
    return out, seconds


#: A merged view is built once the same sources have served
#: ``entries / VIEW_PAYBACK`` consecutive scans unchanged: sources that
#: held that long are bet to hold as long again, which is when the build
#: has paid for itself.  The ratio was measured on ``store-scan``'s
#: store after its ``seek`` phase (28 180 member entries, 20-key scans, a
#: 2-vCPU container, 15 interleaved blocks): the build costs 2.5 µs of
#: host time per member entry and a served scan saves 24.5 µs against
#: the merge without the view, a ratio of 8.7 (quartiles 7.7 and 10.7).
VIEW_PAYBACK = 9

#: A node's ``(key, value)`` pair, built in C.
_pair = attrgetter("key", "value")


class MergedView:
    """One store's memoised merge of its skip-list sources.

    A store's first source is its writable MemTable, which takes every
    write; the rest -- the immutable MemTable, the PMTables and the
    repository -- change only when background work completes.  The view
    memoises the merge of those *members* (every source listed after
    the first when it starts, with a current ``frozen_index()``) once,
    as flat ``array`` columns over member merged positions ``i``
    (members merged by ``(key, -seq, source order)``, as the heap
    kernel pops them):

    * ``terms[2i]``, ``terms[2i + 1]``: the two charges the kernel adds
      when it advances past position ``i`` -- the successor's ``hop``,
      then ``latency + nbytes / bw`` -- or ``0.0, 0.0`` at its source's
      end;
    * ``live[i]``: live keys (the newest member version of a key, not a
      tombstone) among positions ``< i``;
    * per device, ``bytes_at[i]`` / ``ops_at[i]``: the advance reads
      charged on it before position ``i``;

    and the live nodes themselves: with ``d`` devices, ``16 + 4 + 8d``
    bytes per merged entry plus 8 per live one (36 on MioDB's NVM
    members when every entry is live).  Every other listed source is
    *live*: the first, and any source listed since the start (an
    immutable MemTable, a freshly flushed PMTable).  A served scan is
    :func:`_merge` with the members kept out of its heap.  Every
    source's seek and head read is charged in listing order; the
    members' merged start ``P`` is the sum of their ``bisect_left``
    positions.  Before each live item, at its ``(key, -seq, listing
    order)`` rank, the members add one slice of the live nodes and one
    left-to-right float sum over ``terms``.  A live version shadows the
    member versions of its key that follow it (they are still charged),
    and the ``count``-th pair may come from either side.  Device
    counters add the members' head reads and prefix differences to the
    live reads.  So pairs, seconds and counters are the kernel's, bit
    for bit.

    The view serves a scan only while all of these hold, and is dropped
    at the first scan that sees one broken:

    * every member is listed, in the same relative order, on the same
      device, with the same ``frozen_index()`` tuple (compared with
      ``is``; the view holds them, so their ids cannot be reused);
    * no member had a ``SkipList.update_in_place`` since the start (it
      rewrites a node's seq, value and size with no structural version
      bump).

    A write to the first source or a new listed source changes none of
    these.  A scan merges without the view when any source is a sorted
    run, or when a listed device has a recorder (transfer events are
    emitted per read).  Members with a node of negative size are
    never built: the failed build is not retried until the members
    change.  ``served`` counts the scans the view answered; one that
    raised is not counted.
    """

    def __init__(self) -> None:
        self.served = 0
        # The streak of unchanged members: per member skip list, in
        # listing order, (number, device, frozen index, in-place
        # updates, (device slot, hop, latency, bw)); the member devices,
        # by slot; the merged entry count (``inf`` once built or a build
        # failed); the scans it has lasted; and, once built, the columns.
        self._members: Optional[dict] = None
        self._devices: list = []
        self._entries = 0
        self._streak = 0
        self._columns = None

    def scan(
        self, system, start_key: bytes, count: int, sources: Sequence[tuple]
    ) -> Tuple[List[tuple], float]:
        """:func:`merged_scan` over ``sources``, served by the view when it holds."""
        if count <= 0:
            return [], 0.0
        if 3 in map(len, sources):  # a sorted run: the kernel's alone
            self._restart(None, None)
            return merged_scan(system, start_key, count, sources)
        indexes = [skiplist.frozen_index() for skiplist, __ in sources]
        roles = self._roles(sources, indexes)
        if roles is None:
            self._restart(sources, indexes)
        elif self._columns is not None:
            for __, device in sources:
                if device.obs is not None:
                    break
            else:
                result = _merge(
                    system, start_key, count, sources, indexes, self._columns, roles
                )
                self.served += 1
                return result
        self._streak += 1
        result = merged_scan(system, start_key, count, sources, indexes)
        if (
            self._members is not None
            and self._streak * VIEW_PAYBACK >= self._entries
        ):
            self._columns = self._build()
            self._entries = math.inf  # built, or not retried until the members change
        return result

    def _roles(self, sources, indexes) -> Optional[list]:
        """Per listed source its member's costs, ``None`` for a live one;
        ``None`` in place of the list if the members do not hold."""
        members = self._members
        if members is None:
            return None
        roles = []
        m = 0
        for (skiplist, device), index in zip(sources, indexes):
            member = members.get(skiplist)
            if member is None:
                roles.append(None)
                continue
            n, d, i, updates, cost = member
            if (
                n != m or device is not d or index is not i
                or skiplist.in_place_updates != updates
            ):
                return None
            roles.append(cost)
            m += 1
        if m != len(members):
            return None
        return roles

    def _restart(self, sources, indexes) -> None:
        """Drop the view and start a streak at these members, if they qualify."""
        self._columns = None
        self._members = None
        self._devices = []
        self._streak = 0  # the scan that restarts it counts it
        if sources is None or len(sources) < 2 or None in indexes[1:]:
            return
        slots = {}
        members = {}
        for (skiplist, device), index in zip(sources[1:], indexes[1:]):
            slot = slots.get(device)
            if slot is None:
                slot = slots[device] = len(self._devices)
                self._devices.append(device)
            members[skiplist] = (
                len(members), device, index, skiplist.in_place_updates,
                (slot, device.hop_time(), *device.seq_read_rate()),
            )
        self._members = members
        self._entries = sum(len(index[0]) for index in indexes[1:])

    def _build(self):
        """The merge order's columns, or ``None`` if a node has a negative size."""
        terms = array("d")
        live = array("I", [0])
        # Per position, the successor's size and device slot (``past``
        # beyond a source's end); the per-device prefixes are summed from
        # them afterwards.
        succ_bytes = array("q")
        succ_slot = array("B")
        live_nodes: List = []
        members = self._members.values()
        node_lists = [nodes for __, __, (__, nodes, __), __, __ in members]
        heap = []
        for order, nodes in enumerate(node_lists):
            if nodes:
                head = nodes[0]
                if head.nbytes < 0:
                    return None
                heap.append((head.key, -head.seq, order, 0))
        heapify(heap)
        costs = [cost for __, __, __, __, cost in members]
        terms_append = terms.append
        live_append = live.append
        bytes_append = succ_bytes.append
        slot_append = succ_slot.append
        live_node = live_nodes.append
        past = len(self._devices)
        n_live = 0
        last_key = None
        while heap:
            key, neg_seq, order, p = heap[0]
            nodes = node_lists[order]
            if key != last_key:
                last_key = key
                node = nodes[p]
                if node.value is not TOMBSTONE:
                    live_node(node)
                    n_live += 1
            live_append(n_live)
            p += 1
            if p == len(nodes):
                heappop(heap)
                terms.extend((0.0, 0.0))
                bytes_append(0)
                slot_append(past)
                continue
            node = nodes[p]
            nbytes = node.nbytes
            slot, hop, latency, bw = costs[order]
            terms_append(hop)
            terms_append(latency + nbytes / bw)
            bytes_append(nbytes)
            slot_append(slot)
            heapreplace(heap, (node.key, -node.seq, order, p))
        if succ_bytes and min(succ_bytes) < 0:
            return None
        code = "I" if sum(succ_bytes) < 1 << 32 else "q"
        reads = []
        for slot, device in enumerate(self._devices):
            mine = array("B", map(eq, succ_slot, repeat(slot)))
            reads.append((
                device,
                array(code, accumulate(map(mul, succ_bytes, mine), initial=0)),
                array("I", accumulate(mine, initial=0)),
            ))
        return terms, live, live_nodes, reads


def _rank(indexes, roles, key, neg_seq, order) -> Tuple[int, bool]:
    """A live item's merged position among the members, and whether a
    member version of its key comes before it."""
    at = 0
    ahead = False
    for member_order, (index, cost) in enumerate(zip(indexes, roles)):
        if cost is None:
            continue
        keys, nodes, __ = index
        p = bisect_left(keys, key)
        while (
            p < len(keys) and keys[p] == key
            and (-nodes[p].seq, member_order) < (neg_seq, order)
        ):
            p += 1
            ahead = True
        at += p
    return at, ahead
