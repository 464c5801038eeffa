"""Zero-copy compaction of two skip lists (paper Section 4.3).

Nodes migrate from the *newtable* into the *oldtable* purely by pointer
updates -- no KV data is copied, so the merge contributes no write
amplification.  Older duplicate versions are unlinked (logically deleted)
and their bytes accumulate as garbage to be reclaimed after a later
lazy-copy compaction.

Two drivers produce the same merged table and the same cost counters:

- :meth:`ZeroCopyMerge.step` is the resumable stepper with an *insertion
  mark*: the node currently in flight is recorded so queries (and crash
  recovery) never lose it, and every node's position is searched from
  the oldtable's head.  :meth:`ZeroCopyMerge.get` implements the paper's
  query rule -- consult the newtable, then the insertion mark, then the
  oldtable.
- :meth:`ZeroCopyMerge.run` is what the stores call: the whole merge at
  once, as one two-way merge of both bottom chains that relinks every
  tower and charges each moved node the hops a descent from the head
  *would* have paid, which is what the cost model charges.  ``step`` is
  its oracle (``tests/test_merge_kernel_oracle.py``).
"""

from typing import Optional, Tuple

from repro.skiplist.node import MAX_HEIGHT, Node
from repro.skiplist.skiplist import SkipList


class ZeroCopyMerge:
    """Merges ``new`` into ``old``; ``old`` becomes the merged table."""

    def __init__(self, new: SkipList, old: SkipList) -> None:
        self.new = new
        self.old = old
        self.insertion_mark: Optional[Node] = None
        self.done = False
        # Cost counters, consumed by the store's cost model.
        self.pointer_writes = 0
        self.search_hops = 0
        self.nodes_moved = 0
        self.nodes_dropped = 0

    # --------------------------------------------------------------- merging

    def step(self) -> bool:
        """Migrate one node (plus its shadowed duplicates).

        Returns ``True`` while more work remains, ``False`` once the
        newtable is exhausted and the merge is complete.
        """
        if self.done:
            return False
        new = self.new
        node = new.head.next[0]
        if node is None:
            self._finish()
            return False

        # 1. Record the in-flight node, then unlink it from the newtable.
        #    As the minimum element its predecessors are all the head node.
        self.insertion_mark = node
        preds = [new.head] * len(node.next)
        new.unlink(node, preds, to_garbage=False)
        self.pointer_writes += node.height

        # 2. Drop older versions of the same key at the newtable front
        #    (seq-descending order puts them immediately after the newest).
        self._drop_leading_duplicates(new, node.key)

        # 3. Splice the node into the oldtable at (key, seq) order.
        old_preds, hops = self.old._find_predecessors(node.key, node.seq)
        self.search_hops += hops
        for level in range(node.height):
            node.next[level] = None
        self.old._splice_in(node, old_preds)
        self.pointer_writes += node.height
        self.nodes_moved += 1

        # 4. Unlink any older versions that now follow it in the oldtable.
        self._drop_following_duplicates(node)

        self.insertion_mark = None
        if new.head.next[0] is None:
            self._finish()
            return False
        return True

    def run(self) -> "ZeroCopyMerge":
        """Drive the merge to completion; returns self for chaining.

        One pass over both bottom chains in ``(key asc, seq desc)``
        order; each node that stays is linked behind ``last[level]``,
        the merged tail at each of its levels.  A moved node's hops are
        ``sum(cnt)`` over the prefix, kept as the cursor keeps them
        (docs/performance.md, "hop-accounting invariant").  Walking both
        tables in full costs what seeking would: they are two tables of
        one level, of similar size.  Synchronous, so there is no
        insertion mark; everything else is identical to a :meth:`step` loop.
        """
        if self.done:
            return self
        new = self.new
        old = self.old
        last = [old.head] * MAX_HEIGHT
        cnt = [0] * MAX_HEIGHT
        hops = search_hops = pointer_writes = 0
        nodes_moved = old_dropped = new_dropped = moved_bytes = 0
        tallest = old._tallest
        key = None  # the last moved key: its older versions drop
        node = new.take_all()
        other = old.head.next[0]
        while node is not None or other is not None:
            if node is not None and (
                other is None
                or not (
                    other.key < node.key if other.key != node.key
                    else other.seq > node.seq
                )
            ):
                item = node
                node = node.next[0]
                height = item.height
                if item.key == key:
                    # An older version inside the newtable: never migrates.
                    new.garbage_bytes += item.nbytes
                    pointer_writes += height
                    new_dropped += 1
                    continue
                key = item.key
                search_hops += hops
                pointer_writes += 2 * height
                nodes_moved += 1
                moved_bytes += item.nbytes
                if height > tallest:
                    tallest = height
            else:
                item = other
                other = other.next[0]
                height = item.height
                if item.key == key:
                    # An older version the moved node now shadows.
                    old.data_bytes -= item.nbytes
                    old.garbage_bytes += item.nbytes
                    pointer_writes += height
                    old_dropped += 1
                    continue
            # Join the prefix: the tallest node behind the tail below its
            # top level, one more visited node at it.
            top = height - 1
            for level in range(top):
                last[level].next[level] = item
                last[level] = item
                hops -= cnt[level]
                cnt[level] = 0
            last[top].next[top] = item
            last[top] = item
            cnt[top] += 1
            hops += 1
        for level, tail in enumerate(last):
            tail.next[level] = None
        old.entries += nodes_moved - old_dropped
        old.data_bytes += moved_bytes
        old._tallest = tallest
        old._version += 1
        self.pointer_writes += pointer_writes
        self.search_hops += search_hops
        self.nodes_moved += nodes_moved
        self.nodes_dropped += old_dropped + new_dropped
        self._finish()
        return self

    def _drop_leading_duplicates(self, table: SkipList, key: bytes) -> None:
        head = table.head
        while True:
            dup = head.next[0]
            if dup is None or dup.key != key:
                return
            preds = [head] * len(dup.next)
            table.unlink(dup, preds, to_garbage=True)
            self.pointer_writes += dup.height
            self.nodes_dropped += 1

    def _drop_following_duplicates(self, node: Node) -> None:
        while True:
            dup = node.next[0]
            if dup is None or dup.key != node.key:
                return
            preds = self.old.predecessors_of(dup)
            self.old.unlink(dup, preds, to_garbage=True)
            self.pointer_writes += dup.height
            self.nodes_dropped += 1

    def _finish(self) -> None:
        # The newtable's arena (including its unlinked duplicates) now
        # belongs to the merged table until a lazy-copy reclaims it.
        self.old.garbage_bytes += self.new.garbage_bytes
        self.new.garbage_bytes = 0
        self.done = True
        self.insertion_mark = None

    # --------------------------------------------------------------- queries

    def get(self, key: bytes, max_seq: Optional[int] = None) -> Tuple[Optional[Node], int]:
        """Query both tables mid-merge without missing the in-flight node.

        Order: newtable, insertion mark, oldtable (paper Section 4.3,
        "Supporting Concurrent Compaction and Queries").  Returns the
        newest visible version found and the hop count.
        """
        best: Optional[Node] = None
        node, hops = self.new.get(key, max_seq)
        if node is not None:
            best = node
        mark = self.insertion_mark
        if mark is not None and mark.key == key:
            if (max_seq is None or mark.seq <= max_seq) and (
                best is None or mark.seq > best.seq
            ):
                best = mark
        node, extra = self.old.get(key, max_seq)
        hops += extra
        if node is not None and (best is None or node.seq > best.seq):
            best = node
        return best, hops

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return (
            f"ZeroCopyMerge({state}, moved={self.nodes_moved}, "
            f"dropped={self.nodes_dropped}, ptr_writes={self.pointer_writes})"
        )
