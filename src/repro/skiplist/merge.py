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

        The loop walks each run of old nodes that sort before the next
        new node with one key compare per node, relinking only towers
        above level 0 (a run is already chained there); level 0's tail
        and count are locals (three nodes in four have height 1) and
        ``high`` is ``sum(cnt[1:])``.  The older versions of a moved key
        are dropped right behind it, and the byte and entry totals are
        the newtable's own less what dropped.
        """
        if self.done:
            return self
        new = self.new
        old = self.old
        head = old.head
        last = [head] * MAX_HEIGHT
        cnt = [0] * MAX_HEIGHT
        tail = head
        low = high = 0
        search_hops = raised = dropped_height = 0
        new_dropped = new_garbage = old_dropped = old_garbage = 0
        arrived = new.entries
        # The first new node always moves; only taller ones are checked.
        tallest = old._tallest if old._tallest or not arrived else 1
        arrived_bytes = new.data_bytes
        # A key above every old one: once the newtable is done, the
        # rest of the oldtable sorts before it.  (Level 0 is always
        # walked, so ``end`` is the last node whatever ``tallest`` says.)
        end = head
        for level in range(max(tallest, 1) - 1, -1, -1):
            while end.next[level] is not None:
                end = end.next[level]
        beyond = end.key + b"\x00"
        node = new.take_all()
        other = head.next[0]
        while True:
            if node is not None:
                key = node.key
                seq = node.seq
            else:
                key = beyond
            # Every old node that sorts before ``node`` stays, in order:
            # the run is already chained at level 0 behind its first node.
            tail.next[0] = other
            while other is not None:
                okey = other.key
                if not (okey < key or (okey == key and other.seq > seq)):
                    break
                height = other.height
                if height == 1:
                    low += 1
                else:
                    # Join the prefix: the tallest node behind the tail
                    # below its top level, one more visited node at it.
                    top = height - 1
                    low = 0
                    for level in range(1, top):
                        last[level].next[level] = other
                        last[level] = other
                        high -= cnt[level]
                        cnt[level] = 0
                    last[top].next[top] = other
                    last[top] = other
                    cnt[top] += 1
                    high += 1
                tail = other
                other = other.next[0]
            if node is None:
                break
            # ``node`` moves in, at the hops a descent to it would pay.
            item = node
            node = item.next[0]
            search_hops += low + high
            height = item.height
            if height == 1:
                tail.next[0] = item
                tail = item
                low += 1
            else:
                top = height - 1
                raised += top
                if height > tallest:
                    tallest = height
                tail.next[0] = item
                tail = item
                low = 0
                for level in range(1, top):
                    last[level].next[level] = item
                    last[level] = item
                    high -= cnt[level]
                    cnt[level] = 0
                last[top].next[top] = item
                last[top] = item
                cnt[top] += 1
                high += 1
            # Older versions of its key never stay: those inside the
            # newtable never migrate, those in the oldtable it shadows.
            while node is not None and node.key == key:
                new_garbage += node.nbytes
                dropped_height += node.height
                new_dropped += 1
                node = node.next[0]
            while other is not None and other.key == key:
                old_garbage += other.nbytes
                dropped_height += other.height
                old_dropped += 1
                other = other.next[0]
        tail.next[0] = None
        for level in range(1, MAX_HEIGHT):
            last[level].next[level] = None
        nodes_moved = arrived - new_dropped
        old.entries += nodes_moved - old_dropped
        old.data_bytes += arrived_bytes - new_garbage - old_garbage
        old.garbage_bytes += old_garbage
        new.garbage_bytes += new_garbage
        old._tallest = tallest
        old._version += 1
        self.pointer_writes += 2 * (nodes_moved + raised) + dropped_height
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
