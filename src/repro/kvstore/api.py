"""The abstract KV store every engine implements."""

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from repro.kvstore.values import value_nbytes
from repro.skiplist.node import TOMBSTONE


def require_key(key: bytes) -> None:
    """Refuse anything but non-empty ``bytes`` as a key, before any work."""
    if not isinstance(key, bytes) or len(key) == 0:
        raise ValueError(f"keys must be non-empty bytes, got {key!r}")


def require_count(count, name: str = "scan count") -> None:
    """Refuse anything but a non-negative ``int`` (a ``bool`` is not one)
    as a count, before any work."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise TypeError(f"{name} must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"{name} must be >= 0, got {count}")


def _report_served(lookup, count: int) -> None:
    """Tell a batch closure how many keys it served, if it asks to know."""
    served = getattr(lookup, "served", None)
    if served is not None:
        served(count)


def paged_items(scan, start_key: bytes, end_key: Optional[bytes], page_size: int):
    """The cursor loop behind every ``items()``: one ``scan`` per page,
    through the store's, replica group's or shard router's own ``scan``.

    ``page_size`` is checked here, when ``items()`` is called, and not at
    the first ``next()`` of the generator.
    """
    require_count(page_size, "page_size")
    if page_size == 0:
        raise ValueError(f"page_size must be positive, got {page_size}")
    return _pages(scan, start_key, end_key, page_size)


def _pages(scan, start_key: bytes, end_key: Optional[bytes], page_size: int):
    cursor = start_key
    while True:
        pairs, __ = scan(cursor, page_size)
        for key, value in pairs:
            if end_key is not None and key >= end_key:
                return
            yield key, value
        if len(pairs) < page_size:
            return
        cursor = pairs[-1][0] + b"\x00"


class KVStore(ABC):
    """Base class wiring operations to the simulated machine.

    Subclasses implement ``_put``/``_get``/``_scan`` returning the
    simulated duration of the operation; this base advances the clock,
    settles background work, records latency, and accounts user bytes.
    """

    #: Short engine name used in benchmark tables ("miodb", "matrixkv", ...).
    name = "abstract"

    def __init__(self, system, options) -> None:
        self.system = system
        self.options = options
        self.seq = 0

    # ------------------------------------------------------------ public API

    def put(self, key: bytes, value) -> float:
        """Insert or update ``key``; returns the operation latency.

        The latency includes any write stall the operation suffered
        (engines advance the clock directly while blocked on background
        flushes or compactions).
        """
        require_key(key)
        nbytes = value_nbytes(value)
        system = self.system
        executor = system.executor
        if executor.next_due <= system.clock.now:
            executor.settle()
        start = system.clock.now
        self.seq += 1
        seconds = self._put(key, self.seq, value, nbytes)
        system.stats.add("user.bytes_written", len(key) + nbytes)
        system.stats.add("op.put", 1)
        return self._finish("put", start, seconds)

    def delete(self, key: bytes) -> float:
        """Delete ``key`` by writing a tombstone; returns the latency."""
        require_key(key)
        system = self.system
        executor = system.executor
        if executor.next_due <= system.clock.now:
            executor.settle()
        start = system.clock.now
        self.seq += 1
        seconds = self._put(key, self.seq, TOMBSTONE, 0)
        system.stats.add("user.bytes_written", len(key))
        system.stats.add("op.delete", 1)
        return self._finish("delete", start, seconds)

    def get(self, key: bytes) -> Tuple[Optional[object], float]:
        """Look up ``key``; returns ``(value_or_None, latency)``."""
        require_key(key)
        system = self.system
        executor = system.executor
        if executor.next_due <= system.clock.now:
            executor.settle()
        start = system.clock.now
        value, seconds = self._get(key)
        if value is TOMBSTONE:
            value = None
        system.stats.add("op.get", 1)
        return value, self._finish("get", start, seconds)

    def multi_put(self, items) -> List[float]:
        """Apply many puts in one call; returns per-op latencies.

        Byte-identical to calling :meth:`put` once per ``(key, value)``
        pair -- same simulated clock, stats totals, latency samples and
        trace events -- while the per-op Python dispatch floor (settle
        checks, clock/stat attribute chases, plumbing calls) is paid
        once per batch.  All keys are validated before any op runs.
        """
        ops = []
        for key, value in items:
            require_key(key)
            ops.append((key, value, value_nbytes(value), len(key)))
        return self._apply_batch("put", ops)

    def multi_delete(self, keys) -> List[float]:
        """Write a tombstone for every key; returns per-op latencies.

        Equivalent to calling :meth:`delete` per key, with the same
        batched bookkeeping as :meth:`multi_put`.
        """
        ops = []
        for key in keys:
            require_key(key)
            ops.append((key, TOMBSTONE, 0, len(key)))
        return self._apply_batch("delete", ops)

    def multi_get(self, keys) -> List[Tuple[Optional[object], float]]:
        """Look up many keys; returns ``(value_or_None, latency)`` pairs.

        Equivalent to calling :meth:`get` per key.  ``_get`` serves each
        key unless the engine supplies a closure via :meth:`_batch_lookup`;
        the base loop re-requests it whenever settled background work may
        have changed table structure, so mid-batch flushes and compactions
        land exactly where the one-op-at-a-time path would see them.
        """
        keys = list(keys)
        for key in keys:
            require_key(key)
        results: List[Tuple[Optional[object], float]] = []
        if not keys:
            return results
        system = self.system
        clock = system.clock
        executor = system.executor
        settle = executor.settle
        stamp, sample = system.latency.appenders("get")
        obs = system.obs
        tombstone = TOMBSTONE
        fallback = self._get
        lookup = self._batch_lookup() or fallback
        taken = 0
        try:
            for key in keys:
                if executor.next_due <= clock.now:
                    if settle():
                        _report_served(lookup, len(results) - taken)
                        taken = len(results)
                        lookup = self._batch_lookup() or fallback
                start = clock.now
                value, seconds = lookup(key)
                clock.advance(seconds)
                now = clock.now
                latency = now - start
                stamp(now)
                sample(latency)
                results.append((None if value is tombstone else value, latency))
                if obs is not None:
                    obs.span("foreground", "get", "op", start, now)
        finally:  # a settle may raise: served gets count, as per-op ones do
            _report_served(lookup, len(results) - taken)
            system.stats.add("op.get", float(len(results)))
        return results

    def scan(self, start_key: bytes, count: int) -> Tuple[List[Tuple[bytes, object]], float]:
        """Range query: up to ``count`` live pairs from ``start_key`` on."""
        require_key(start_key)
        require_count(count)
        system = self.system
        executor = system.executor
        if executor.next_due <= system.clock.now:
            executor.settle()
        start = system.clock.now
        pairs, seconds = self._scan(start_key, count)
        system.stats.add("op.scan", 1)
        latency = self._finish("scan", start, seconds)
        return pairs, latency

    # repro: allow[OPT001] paging and key bounds are the tests' window onto paged_items
    def items(self, start_key: bytes = b"\x00", end_key: Optional[bytes] = None,
              page_size: int = 128):
        """Iterate live ``(key, value)`` pairs in key order.

        Yields from ``start_key`` (inclusive) to ``end_key`` (exclusive,
        unbounded when ``None``), fetching ``page_size`` pairs per
        underlying scan.  Each page is one simulated scan operation.
        """
        return paged_items(self.scan, start_key, end_key, page_size)

    def write(self, batch) -> float:
        """Apply a :class:`~repro.kvstore.batch.WriteBatch`.

        The base implementation applies the operations sequentially;
        engines with batch-aware logging (MioDB) override it to make the
        batch atomic under crashes.  Returns the total latency.
        """
        total = 0.0
        for op, key, value in batch.ops:
            if op == "put":
                total += self.put(key, value)
            else:
                total += self.delete(key)
        return total

    def quiesce(self) -> float:
        """Wait for all background flushing/compaction to finish."""
        return self.system.drain_background()

    # --------------------------------------------------------- engine hooks

    @abstractmethod
    def _put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        """Apply one versioned write; return its simulated duration."""

    @abstractmethod
    def _get(self, key: bytes) -> Tuple[Optional[object], float]:
        """Point lookup; return ``(newest version as stored, duration)``:
        a value, ``TOMBSTONE`` or ``None``.  Only :meth:`get` and
        :meth:`multi_get` turn a tombstone into a miss."""

    @abstractmethod
    def _scan(self, start_key: bytes, count: int):
        """Range scan; return ``(pairs, duration)``."""

    def _batch_lookup(self):
        """Hook: a callable equivalent to ``_get`` with hot state hoisted.

        :meth:`multi_get` calls this once per batch and again whenever a
        settled background callback may have moved tables around; the
        returned closure must produce byte-identical ``(value, seconds)``
        pairs to ``_get``, tombstones too.  Returning ``None`` (the
        default) makes the batch loop fall back to ``_get`` per key.  A
        closure that sets a ``served`` attribute has it called with the
        number of keys it served when the loop drops it, at a refresh or
        at the end.

        Override it only where a ``BENCHMARK.json`` workload shows each
        side winning; otherwise the engine has one read walk.  Only
        MioDB qualifies (the closure on ``store-get``, ``_get`` on
        ``cluster-k0``); the baselines measured as noise.  A second
        implementer owes an oracle like ``tests/test_miodb_read_oracle.py``:
        closure against ``_get``, every tier populated, structure moving
        under it mid-batch.
        """
        return None

    # -------------------------------------------------------------- plumbing

    def _apply_batch(self, kind: str, ops) -> List[float]:
        """Shared loop behind :meth:`multi_put` and :meth:`multi_delete`.

        ``ops`` is a list of ``(key, value, value_bytes, key_len)``
        tuples that already passed validation.  Per op this replays the
        exact sequence of the unbatched path -- settle due background
        work, stamp the start time, allocate the sequence number, apply
        ``_put``, advance the clock, record the latency sample, emit the
        op span -- and defers only the stats-registry adds (pure integer
        sums, exact in float) to the end of the batch; with a recorder
        attached the user bytes are added ahead of each op span instead.
        """
        latencies: List[float] = []
        if not ops:
            return latencies
        system = self.system
        clock = system.clock
        executor = system.executor
        settle = executor.settle
        stamp, sample = system.latency.appenders(kind)
        put_ = self._put
        obs = system.obs
        stats = system.stats
        user_bytes = 0
        try:
            for key, value, value_bytes, key_len in ops:
                if executor.next_due <= clock.now:
                    settle()
                start = clock.now
                self.seq += 1
                seconds = put_(key, self.seq, value, value_bytes)
                clock.advance(seconds)
                now = clock.now
                latency = now - start
                stamp(now)
                sample(latency)
                latencies.append(latency)
                user_bytes += key_len + value_bytes
                if obs is not None:
                    # A live recorder closes windows on op spans and reads
                    # write amplification then: no user bytes may be pending.
                    stats.add("user.bytes_written", user_bytes)
                    user_bytes = 0
                    obs.span("foreground", kind, "op", start, now)
        finally:  # ``_put`` or a settle may raise: completed ops count
            stats.add("user.bytes_written", user_bytes)
            stats.add("op." + kind, float(len(latencies)))
        return latencies

    def _finish(self, kind: str, start: float, seconds: float) -> float:
        system = self.system
        now = system.clock.advance(seconds)
        latency = now - start
        system.latency.record(kind, now, latency)
        obs = system.obs
        if obs is not None:
            obs.span("foreground", kind, "op", start, now)
        return latency

    def _stall_wait(self, cause: str, seconds: float) -> float:
        """Record an interval stall that just advanced the clock.

        Adds to ``stall.interval_s`` and, when tracing is on, emits a
        stall span covering the blocked window with its ``cause``
        (``repro.obs.events.STALL_CAUSES`` is the vocabulary).  Returns
        ``seconds`` so call sites can stay expression-shaped.
        """
        if seconds > 0.0:
            self.system.stats.add("stall.interval_s", seconds)
            obs = self.system.obs
            if obs is not None:
                now = self.system.clock.now
                obs.span(
                    "foreground", "stall", "stall", now - seconds, now,
                    {"cause": cause},
                )
        return seconds

    def _stall_delay(self, cause: str, seconds: float) -> float:
        """Record a cumulative slowdown delay applied to one write.

        Unlike an interval stall the clock has not advanced yet (the
        delay is folded into the operation's duration), so the trace
        gets an instant event carrying the delay in its args.  Returns
        ``seconds``.
        """
        self.system.stats.add("stall.cumulative_s", seconds)
        obs = self.system.obs
        if obs is not None:
            obs.instant(
                "foreground", "stall", "stall",
                {"cause": cause, "seconds": seconds},
            )
        return seconds

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seq={self.seq})"
