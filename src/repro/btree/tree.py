"""An order-N B+-tree with simulation cost accounting.

Values live only in leaves; leaves are chained for range scans.  Every
method that touches the tree returns the number of node visits and node
writes it performed, so the caller can charge the machine's cost model
(for SLM-DB: NVM pointer chases and random NVM writes).
"""

import bisect
from typing import List, Optional, Tuple

DEFAULT_ORDER = 64

#: Accounted size of one on-NVM tree node (header + fanout slots).
NODE_BYTES = 1024


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.keys: List[bytes] = []
        self.children: List["_Node"] = []
        self.values: List[object] = []
        self.next_leaf: Optional["_Node"] = None
        self.is_leaf = is_leaf


class BPlusTree:
    """Map from keys to opaque values (SLM-DB stores table locators)."""

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 4:
            raise ValueError(f"order must be >= 4, got {order}")
        self.order = order
        self.root = _Node(is_leaf=True)
        self.size = 0
        self.height = 1
        self.node_count = 1

    # --------------------------------------------------------------- search

    def get(self, key: bytes) -> Tuple[Optional[object], int]:
        """Return ``(value_or_None, nodes_visited)``."""
        node = self.root
        visits = 1
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
            visits += 1
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx], visits
        return None, visits

    # --------------------------------------------------------------- update

    def insert(self, key: bytes, value, keep_newer: bool = False) -> Tuple[int, int]:
        """Insert or overwrite; returns ``(nodes_visited, nodes_written)``.

        With ``keep_newer`` values are ``(locator, seq)`` pairs, and a
        present value with a larger seq stays (0 nodes written): a get
        then insert in one descent, which visits as many nodes as each.
        """
        path: List[Tuple[_Node, int]] = []
        node = self.root
        visits = 1
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
            visits += 1

        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            if keep_newer and node.values[idx][1] > value[1]:
                return visits, 0
            node.values[idx] = value
            return visits, 1
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self.size += 1
        writes = 1
        # Split upward while nodes overflow.
        while len(node.keys) >= self.order:
            sibling, separator = self._split(node)
            writes += 2
            if not path:
                new_root = _Node(is_leaf=False)
                new_root.keys = [separator]
                new_root.children = [node, sibling]
                self.root = new_root
                self.height += 1
                self.node_count += 1
                writes += 1
                break
            parent, pidx = path.pop()
            parent.keys.insert(pidx, separator)
            parent.children.insert(pidx + 1, sibling)
            node = parent
        return visits, writes

    def delete(self, key: bytes) -> Tuple[bool, int]:
        """Remove ``key`` (no rebalancing -- index entries are re-created
        by compaction anyway).  Returns ``(removed, nodes_visited)``."""
        node = self.root
        visits = 1
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
            visits += 1
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.keys.pop(idx)
            node.values.pop(idx)
            self.size -= 1
            return True, visits
        return False, visits

    def _split(self, node: _Node) -> Tuple[_Node, bytes]:
        mid = len(node.keys) // 2
        sibling = _Node(node.is_leaf)
        self.node_count += 1
        if node.is_leaf:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
        else:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        return sibling, separator

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"BPlusTree(size={self.size}, height={self.height})"
