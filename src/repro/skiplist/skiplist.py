"""Multi-version skip list.

The list tracks both its live payload (``data_bytes``) and the payload of
nodes that were unlinked by zero-copy merging but not yet reclaimed
(``garbage_bytes``) -- the paper frees that memory lazily after a
lazy-copy compaction.

Search methods return ``(node, hops)`` pairs; the hop counts feed the CPU
cost model (a hop on NVM is several times more expensive than on DRAM).
:class:`SkipListCursor` merges a whole sorted run into a list at the same
charged hops without searching from the head for each node.
"""

from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

from repro.skiplist.node import BRANCHING, MAX_HEIGHT, NODE_OVERHEAD_BYTES, Node
from repro.sim.rng import XorShiftRng

#: A frozen-index rebuild walks every entry, so it has paid for itself
#: once it served ``entries / INDEX_PAYBACK`` lookups; one that served
#: fewer doubles the misses the next rebuild waits for.
INDEX_PAYBACK = 8


class SkipList:
    """Nodes ordered by (key ascending, seq descending)."""

    def __init__(self, rng: Optional[XorShiftRng] = None) -> None:
        self._rng = rng or XorShiftRng()
        self.head = Node(b"", -1, None, 0, MAX_HEIGHT)
        self.entries = 0
        self.data_bytes = 0
        self.garbage_bytes = 0
        #: :meth:`update_in_place` calls so far.  They rewrite a node's
        #: ``seq``, ``value`` and ``nbytes`` without a structural version
        #: bump, so a reader that memoised payloads compares this count.
        self.in_place_updates = 0
        # Upper bound on the tallest linked tower.  Levels above it are
        # guaranteed empty, so searches skip them outright; unlinking the
        # tallest node leaves the bound stale-high, which is correct
        # (those levels are walked and found empty) just not tight.
        self._tallest = 0
        # Structural version, bumped on every link/unlink; the frozen
        # index below is valid only while the version it captured holds.
        self._version = 0
        self._index: Optional[Tuple[List[bytes], List[Node], List[int]]] = None
        self._index_version = -1
        self._index_hits = 0
        self._index_misses = 0
        self._rebuild_after = 8

    # -------------------------------------------------------------- queries

    def _find_predecessors(
        self, key: bytes, seq: int
    ) -> Tuple[List[Node], int]:
        """Predecessor at every level for position (key, seq); plus hops.

        Every walking get and scan seek lands here (:meth:`insert`
        inlines a copy), so ``Node.precedes`` is inlined: keys ascend,
        and among equal keys larger sequence numbers (newer versions)
        come first.  The descent never needs a
        tower-height guard -- a node reached at ``level`` spans it, and
        the head spans every level.
        """
        node = self.head
        preds = [node] * MAX_HEIGHT
        hops = 0
        # Levels above the tallest linked tower hold no nodes: walking
        # them adds no hops and leaves their predecessor at the head,
        # exactly what the preds prefill already says.
        for level in range(self._tallest - 1, -1, -1):
            nxt = node.next[level]
            while nxt is not None:
                nkey = nxt.key
                if not (nkey < key or (nkey == key and nxt.seq > seq)):
                    break
                node = nxt
                nxt = node.next[level]
                hops += 1
            preds[level] = node
        return preds, hops

    def first_ge(self, key: bytes) -> Tuple[Optional[Node], int]:
        """First node with ``node.key >= key`` (its newest version)."""
        # seq=+inf sentinel: stop before any version of `key`.
        preds, hops = self._find_predecessors(key, 1 << 62)
        return preds[0].next[0], hops

    def get(
        self, key: bytes, max_seq: Optional[int] = None
    ) -> Tuple[Optional[Node], int]:
        """Newest version of ``key`` visible at snapshot ``max_seq``.

        Tombstone nodes are returned as-is; callers decide whether a
        tombstone means "not found" or must shadow older levels.
        """
        node, hops = self.first_ge(key)
        while node is not None and node.key == key:
            if max_seq is None or node.seq <= max_seq:
                return node, hops
            node = node.next[0]
            hops += 1
        return None, hops

    def frozen_index(self):
        """Bottom-level snapshot ``(keys, nodes, hops_at)`` or ``None``.

        ``hops_at[p]`` is exactly the number of forward hops the level
        descent of :meth:`first_ge` pays to reach bottom-level position
        ``p``: the nodes stepped onto are precisely the suffix maxima of
        the tower heights in the prefix ``[0, p)`` (a node is visited iff
        no node between it and the target is strictly taller; equal
        heights are both visited).  A monotonic stack yields those counts
        in one O(n) pass, so an index query can charge the byte-identical
        hop cost without walking the towers.

        The index is rebuilt lazily when the structural version moved.
        Rebuilds back off exponentially, up to ``max(1024, entries)``
        misses, while each serves fewer than ``entries / INDEX_PAYBACK``
        lookups before the next link or unlink invalidates it (an
        in-flight zero-copy merge relinks nodes every step; a big list
        takes a write between a few reads); callers then get ``None``
        and must fall back to the walking search.
        """
        if self._index_version == self._version:
            self._index_hits += 1
            return self._index
        self._index_misses += 1
        if self._index is not None:
            if self._index_misses < self._rebuild_after:
                return None
            if self._index_hits * INDEX_PAYBACK < self.entries:
                self._rebuild_after = min(
                    max(1024, self.entries), self._rebuild_after * 2
                )
            else:
                self._rebuild_after = 8
        keys: List[bytes] = []
        nodes: List[Node] = []
        hops_at = [0]
        stack: List[int] = []
        node = self.head.next[0]
        while node is not None:
            keys.append(node.key)
            nodes.append(node)
            height = node.height
            while stack and stack[-1] < height:
                stack.pop()
            stack.append(height)
            hops_at.append(len(stack))
            node = node.next[0]
        self._index = (keys, nodes, hops_at)
        self._index_version = self._version
        self._index_hits = 0
        self._index_misses = 0
        return self._index

    def credit_index(self, index, hits: int) -> None:
        """Count ``hits`` lookups a caller served from a captured ``index``.

        A caller that bisects the arrays of :meth:`frozen_index` itself
        (MioDB's batched read plan) bypasses the per-call hit count the
        rebuild back-off reads, so it reports its use here, once per
        batch.  ``index`` is the tuple it captured: if the list has
        rebuilt since, the hits belonged to the snapshot that is gone
        and say nothing about the new one.
        """
        if index is self._index:
            self._index_hits += hits

    def lookup(self, key: bytes) -> Tuple[Optional[Node], int]:
        """Newest version of ``key``: index-accelerated :meth:`get`.

        Returns the identical ``(node, hops)`` pair ``get(key)`` would --
        same node object, same charged hop count -- via one bisect over
        the frozen index when it is current, falling back to the walking
        search otherwise.  (Not written as a call to :meth:`seek`: this
        is the point-read hot path and the extra frame costs it ~3%.)
        """
        index = self.frozen_index()
        if index is None:
            return self.get(key)
        keys, nodes, hops_at = index
        p = bisect_left(keys, key)
        if p < len(keys) and keys[p] == key:
            return nodes[p], hops_at[p]
        return None, hops_at[p]

    def seek(self, key: bytes) -> Tuple[Optional[Node], int]:
        """First node with ``node.key >= key``: index-accelerated :meth:`first_ge`.

        Same node object and same charged hop count as ``first_ge(key)``;
        walks the towers only while the frozen index is stale.
        """
        index = self.frozen_index()
        if index is None:
            return self.first_ge(key)
        keys, nodes, hops_at = index
        p = bisect_left(keys, key)
        return (nodes[p] if p < len(nodes) else None), hops_at[p]

    def nodes(self) -> Iterator[Node]:
        """Every version in order, including tombstones."""
        node = self.head.next[0]
        while node is not None:
            yield node
            node = node.next[0]

    @property
    def is_empty(self) -> bool:
        """True when no nodes are linked at the bottom level."""
        return self.head.next[0] is None

    # -------------------------------------------------------------- updates

    def insert(
        self,
        key: bytes,
        seq: int,
        value,
        value_bytes: int,
    ) -> Tuple[Node, int]:
        """Insert one version; returns ``(node, hops)``.

        Duplicate (key, seq) pairs are rejected -- sequence numbers are
        globally unique in every store built on this structure -- before
        the height draw, so a rejected insert consumes no randomness.
        Every MemTable put lands here, so the descent of
        :meth:`_find_predecessors` and :meth:`_splice_in` are inlined.
        """
        node = self.head
        preds = [node] * MAX_HEIGHT
        hops = 0
        for level in range(self._tallest - 1, -1, -1):
            nxt = node.next[level]
            while nxt is not None:
                nkey = nxt.key
                if not (nkey < key or (nkey == key and nxt.seq > seq)):
                    break
                node = nxt
                nxt = node.next[level]
                hops += 1
            preds[level] = node
        at = node.next[0]
        if at is not None and at.key == key and at.seq == seq:
            raise ValueError(f"duplicate (key, seq): ({key!r}, {seq})")
        height = self._rng.tower_height(BRANCHING, MAX_HEIGHT)
        node = Node(key, seq, value, len(key) + value_bytes + NODE_OVERHEAD_BYTES, height)
        tower = node.next
        for level in range(height):
            pred = preds[level]
            tower[level] = pred.next[level]
            pred.next[level] = node
        self.entries += 1
        self.data_bytes += node.nbytes
        if height > self._tallest:
            self._tallest = height
        self._version += 1
        return node, hops

    def _splice_in(self, node: Node, preds: List[Node]) -> None:
        """Link ``node`` after the given predecessors and account it."""
        for level in range(node.height):
            pred = preds[level]
            # preds[level] always spans `level` (see _find_predecessors).
            node.next[level] = pred.next[level]
            pred.next[level] = node
        self.entries += 1
        self.data_bytes += node.nbytes
        if node.height > self._tallest:
            self._tallest = node.height
        self._version += 1

    def update_in_place(self, node: Node, seq: int, value, value_bytes: int) -> int:
        """Overwrite a node's payload (MioDB's repository update path).

        Legal only when the node is its key's sole version in this list,
        so changing ``seq`` cannot reorder it.  Returns the change in the
        node's accounted size.
        """
        nxt = node.next[0]
        if nxt is not None and nxt.key == node.key:
            raise ValueError("in-place update on a multi-version key")
        if seq < node.seq:
            raise ValueError(f"in-place update going backwards: {seq} < {node.seq}")
        new_nbytes = len(node.key) + value_bytes + NODE_OVERHEAD_BYTES
        delta = new_nbytes - node.nbytes
        node.seq = seq
        node.value = value
        node.nbytes = new_nbytes
        self.data_bytes += delta
        self.in_place_updates += 1
        # No _version bump: the node keeps its position (sole version of
        # its key, checked above) and the frozen index holds node
        # references, so payload updates stay visible through it.
        return delta

    def unlink(self, node: Node, preds: List[Node], to_garbage: bool = True) -> None:
        """Remove ``node`` given its predecessors at every level.

        With ``to_garbage`` the node's bytes move to the garbage pool
        (zero-copy merge semantics: unlinked but not yet reclaimed);
        otherwise they simply leave the list (physical removal).
        """
        for level in range(node.height):
            pred = preds[level]
            if pred.next[level] is not node:
                raise ValueError("stale predecessors for unlink")
            pred.next[level] = node.next[level]
        self.entries -= 1
        self.data_bytes -= node.nbytes
        self._version += 1
        if to_garbage:
            self.garbage_bytes += node.nbytes

    def predecessors_of(self, node: Node) -> List[Node]:
        """Exact predecessors of a linked node (for unlinking)."""
        preds, __ = self._find_predecessors(node.key, node.seq)
        if preds[0].next[0] is not node:
            raise ValueError(f"node not in list: {node!r}")
        return preds

    def cursor(self) -> "SkipListCursor":
        """A monotone finger for merging a sorted run into this list."""
        return SkipListCursor(self)

    def take_all(self) -> Optional[Node]:
        """Detach every node at once; returns the former first node.

        The chain stays linked through ``next[0]`` for the caller to
        walk; the list itself is left empty, exactly as if each node had
        been unlinked in turn with ``to_garbage=False``.
        """
        first = self.head.next[0]
        if first is not None:
            self.head.next = [None] * MAX_HEIGHT
            self.entries = 0
            self.data_bytes = 0
            self._version += 1
        return first

    # ------------------------------------------------------------- accounting

    @property
    def footprint_bytes(self) -> int:
        """Live plus not-yet-reclaimed bytes (arena footprint)."""
        return self.data_bytes + self.garbage_bytes

    def __len__(self) -> int:
        return self.entries

    def __repr__(self) -> str:
        return (
            f"SkipList(entries={self.entries}, data={self.data_bytes}B, "
            f"garbage={self.garbage_bytes}B)"
        )


class SkipListCursor:
    """Monotone finger: merges a sorted run without re-descending.

    The cursor remembers the predecessor tower of its position and, per
    level ``L``, ``cnt[L]`` = how many nodes a from-head descent to that
    position steps onto at level ``L`` -- the nodes of height exactly
    ``L + 1`` behind the last taller node, i.e. the suffix maxima of the
    prefix's tower heights that :meth:`SkipList.frozen_index` counts.
    :meth:`seek` therefore returns the identical ``(preds, hops)`` that
    ``_find_predecessors`` would, but pays only for the distance moved:
    it climbs from level 0 while the next node at that level still
    precedes the target, then descends from there.  Levels above the
    climb keep their predecessor and count; the top level that moved
    extends its count; the levels below it restart from zero behind
    their new, taller predecessor.

    Valid only while the cursor is the list's sole mutator and its
    targets ascend in the list's ``(key asc, seq desc)`` order.  Both
    misuses raise ``ValueError`` instead of returning wrong hop counts:
    a ``_version`` the cursor did not produce, and a target the cursor
    has already passed (one that does not sort after its bottom-level
    predecessor; a node it linked counts as passed).  The returned
    ``preds`` list is the cursor's own and changes with the next call.
    """

    __slots__ = ("_list", "_preds", "_cnt", "_hops", "_version")

    def __init__(self, skiplist: SkipList) -> None:
        self._list = skiplist
        self._preds: List[Node] = [skiplist.head] * MAX_HEIGHT
        self._cnt = [0] * MAX_HEIGHT
        self._hops = 0
        self._version = skiplist._version

    def _foreign_move(self) -> ValueError:
        lst = self._list
        return ValueError(
            f"cursor on {lst!r} is stale: the list was mutated behind it "
            f"(_version {self._version} -> {lst._version})"
        )

    def seek(self, key: bytes, seq: int) -> Tuple[List[Node], int]:
        """Advance to position ``(key, seq)``; returns ``(preds, hops)``."""
        lst = self._list
        if lst._version != self._version:
            raise self._foreign_move()
        preds = self._preds
        # Climb: a level moves iff its next node still precedes the
        # target, and then so does every level below it.
        level = 0
        for pred in preds:
            nxt = pred.next[level]
            if nxt is None:
                break
            nkey = nxt.key
            if not (nkey < key or (nkey == key and nxt.seq > seq)):
                break
            node = nxt
            level += 1
        if level == 0:
            # Nothing moved: right for every target in the gap ahead,
            # wrong only for one the cursor has already passed.
            node = preds[0]
            nkey = node.key
            if not (nkey < key or (nkey == key and node.seq > seq)):
                if node is not lst.head:
                    raise ValueError(
                        f"cursor on {lst!r} cannot move backwards: target "
                        f"({key!r}, {seq}) does not sort after {node!r}"
                    )
            return preds, self._hops
        # Descend.  The top moved level walks on from its old
        # predecessor (same taller node behind it, so the count grows;
        # `node` is the first step, already compared by the climb);
        # lower levels start at the predecessor just found above.
        cnt = self._cnt
        hops = self._hops
        level -= 1
        steps = cnt[level] + 1
        while True:
            nxt = node.next[level]
            while nxt is not None:
                nkey = nxt.key
                if not (nkey < key or (nkey == key and nxt.seq > seq)):
                    break
                node = nxt
                nxt = node.next[level]
                steps += 1
            preds[level] = node
            hops += steps - cnt[level]
            cnt[level] = steps
            if level == 0:
                break
            level -= 1
            steps = 0
        self._hops = hops
        return preds, hops

    def link(self, key: bytes, seq: int, value, value_bytes: int) -> Node:
        """Insert a new version at the cursor's position; returns the node.

        The position is the last :meth:`seek`'s, which the caller knows
        to be ``(key, seq)``'s: the seek was to it, or to a target with
        no node between them (``(key, 1 << 62)`` for a key the list does
        not hold).  The node joins the prefix behind the cursor: below
        its top level it becomes the predecessor with nothing visited
        behind it; at its top level it is one more visited node.
        """
        lst = self._list
        if lst._version != self._version:
            raise self._foreign_move()
        height = lst._rng.tower_height(BRANCHING, MAX_HEIGHT)
        node = Node(key, seq, value, len(key) + value_bytes + NODE_OVERHEAD_BYTES, height)
        preds = self._preds
        cnt = self._cnt
        hops = self._hops + 1
        nxt = node.next
        top = height - 1
        for level in range(top):
            pred = preds[level]
            nxt[level] = pred.next[level]
            pred.next[level] = node
            preds[level] = node
            hops -= cnt[level]
            cnt[level] = 0
        pred = preds[top]
        nxt[top] = pred.next[top]
        pred.next[top] = node
        preds[top] = node
        cnt[top] += 1
        self._hops = hops
        lst.entries += 1
        lst.data_bytes += node.nbytes
        if height > lst._tallest:
            lst._tallest = height
        lst._version = self._version = lst._version + 1
        return node

    def insert(
        self,
        key: bytes,
        seq: int,
        value,
        value_bytes: int,
    ) -> Tuple[Node, int]:
        """:meth:`SkipList.insert` through the cursor; same contract."""
        preds, hops = self.seek(key, seq)
        at = preds[0].next[0]
        if at is not None and at.key == key and at.seq == seq:
            raise ValueError(f"duplicate (key, seq): ({key!r}, {seq})")
        return self.link(key, seq, value, value_bytes), hops

    def unlink_next(self, to_garbage: bool = True) -> Node:
        """Unlink the node right after the cursor; returns it.

        The cursor's predecessors are that node's predecessors, and the
        prefix behind the cursor -- hence every count -- is untouched.
        """
        lst = self._list
        if lst._version != self._version:
            raise self._foreign_move()
        node = self._preds[0].next[0]
        if node is None:
            raise ValueError(f"cursor on {lst!r} is at the end: nothing to unlink")
        lst.unlink(node, self._preds, to_garbage)
        self._version = lst._version
        return node
