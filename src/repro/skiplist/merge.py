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
  once, as one pass over the newtable's bottom level through a monotone
  :class:`~repro.skiplist.skiplist.SkipListCursor` on the oldtable.  A
  sorted run never needs to search backwards, so each splice costs the
  distance from the previous one instead of a descent from the head;
  the cursor reports the hop count that descent *would* have paid, which
  is what the cost model charges.  ``step`` is its oracle
  (``tests/test_merge_kernel_oracle.py``).
"""

from typing import Optional, Tuple

from repro.skiplist.node import Node
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

        One pass over the newtable's bottom level, splicing through a
        monotone cursor on the oldtable (the run is sorted, so no search
        restarts from the head).  Counters, hop charges and the
        resulting structure are identical to a :meth:`step` loop.  Runs
        synchronously (no queries interleave), so the insertion mark is
        not maintained.
        """
        if self.done:
            return self
        new = self.new
        cursor = self.old.cursor()
        splice = cursor.splice
        pointer_writes = 0
        search_hops = 0
        nodes_moved = 0
        nodes_dropped = 0
        key = None
        node = new.take_all()
        while node is not None:
            following = node.next[0]
            if node.key == key:
                # An older version inside the newtable: never migrates.
                new.garbage_bytes += node.nbytes
                pointer_writes += node.height
                nodes_dropped += 1
            else:
                key = node.key
                search_hops += splice(node)
                pointer_writes += 2 * node.height
                nodes_moved += 1
                # Older versions that now follow it in the oldtable.
                dup = node.next[0]
                while dup is not None and dup.key == key:
                    cursor.unlink_next(to_garbage=True)
                    pointer_writes += dup.height
                    nodes_dropped += 1
                    dup = node.next[0]
            node = following
        self.pointer_writes += pointer_writes
        self.search_hops += search_hops
        self.nodes_moved += nodes_moved
        self.nodes_dropped += nodes_dropped
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
