"""Named counters and duration accumulators shared by all KV stores.

Stores publish the cost breakdowns the paper reports (Table 1): interval
stalls, cumulative stalls, flushing time, (de)serialization time, bytes
written by the user versus bytes written to each device, and so on.

Keys follow a ``family.metric`` convention; :data:`KEY_FAMILIES` is the
registry of conventional families, so stores stop inventing ad-hoc
names.  Lint rule STAT001 checks the literal keys statically, and the
model checker asserts after every quiesce that each store's, cluster's
and replica group's counters stay inside the registered families.
"""

from typing import Dict

#: The conventional key families and what belongs in each.  Metric names
#: use ``_s`` for accumulated seconds and ``_bytes``/``count`` suffixes
#: for byte and event counters.
KEY_FAMILIES: Dict[str, str] = {
    "stall": "foreground write stalls: interval_s (blocking) and "
             "cumulative_s (per-write slowdown delays)",
    "flush": "MemTable flushes: time_s, count, bytes",
    "swizzle": "MioDB background pointer swizzling: time_s",
    "serialize": "SSTable serialization: time_s",
    "deserialize": "SSTable/row deserialization: time_s",
    "compact": "compaction work: time_s, count, bytes_in, ptr_writes, "
               "lazy_count, lazy_time_s",
    "user": "logical client traffic: bytes_written (the WA denominator)",
    "gc": "lazy-copy garbage collection: reclaimed_bytes",
    "op": "operation counts: put, get, scan, delete, batch",
    "recover": "crash recovery: count, time_s, replayed, dropped_jobs",
    "cluster": "sharded serving layer: routed ops, drops by cause, "
               "rebalances, migrated_keys, migrated_bytes",
    "live": "live telemetry plane: ops_seen, ops_retained, windows, "
            "flight_dumps (flushed once at recorder detach)",
    "repl": "replication: shipped/applied records, ack_wait_s, lag peaks, "
            "elections, kills, restarts, degraded-quorum acks",
}


class StatsRegistry:
    """A flat map of named floating-point accumulators.

    Conventional key families are documented in :data:`KEY_FAMILIES`;
    :meth:`snapshot_grouped` returns the counters nested by family.
    """

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def add(self, key: str, amount: float = 1.0) -> float:
        """Accumulate ``amount`` into ``key`` and return the new total."""
        total = self._values.get(key, 0.0) + amount
        self._values[key] = total
        return total

    def get(self, key: str, default: float = 0.0) -> float:
        """Current value of ``key`` (``default`` when never touched)."""
        return self._values.get(key, default)

    def max(self, key: str, value: float) -> float:
        """Keep the running maximum of ``key``."""
        current = self._values.get(key)
        if current is None or value > current:
            self._values[key] = value
            current = value
        return current

    def snapshot(self) -> Dict[str, float]:
        """A copy of every counter, for reporting."""
        return dict(self._values)

    def snapshot_grouped(self) -> Dict[str, Dict[str, float]]:
        """Counters nested by key family, metric names sorted.

        ``{"stall": {"interval_s": 1.2, "cumulative_s": 0.3}, ...}``;
        a key without a ``.`` lands under its own name with metric
        ``""``.
        """
        grouped: Dict[str, Dict[str, float]] = {}
        for key in sorted(self._values):
            family, __, metric = key.partition(".")
            grouped.setdefault(family, {})[metric] = self._values[key]
        return grouped

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __repr__(self) -> str:
        return f"StatsRegistry({len(self._values)} counters)"
