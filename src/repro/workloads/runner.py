"""Phase measurement over the simulated clock, and the op issuers.

A :class:`Phase` brackets a stretch of operations against one store and
produces a :class:`RunResult`: simulated duration, throughput, and the
latency summary of exactly the operations issued inside the phase.

A workload draws its op stream one column of at most
:data:`COLUMN_CHUNK` ops at a time (:func:`columns`) and hands each
column to the :func:`issuer` it picked before the phase, which issues
it at the call: ``batch_size=None`` is one store call per op, a number
sends the call's ops through the ``multi_*`` entry point in slices of
at most that many.  Only wall-clock time differs between the two
(docs/performance.md).
"""

from typing import Dict, Optional

from repro.sim.host import collector_paused
from repro.sim.latency import LatencySummary


class RunResult:
    """Metrics for one workload phase."""

    def __init__(
        self,
        name: str,
        ops: int,
        duration_s: float,
        latency: LatencySummary,
        per_kind: Dict[str, LatencySummary],
        stats_delta: Dict[str, float],
    ) -> None:
        self.name = name
        self.ops = ops
        self.duration_s = duration_s
        self.latency = latency
        self.per_kind = per_kind
        self.stats_delta = stats_delta

    @property
    def kiops(self) -> float:
        """Throughput in thousands of operations per simulated second."""
        if self.duration_s <= 0:
            return 0.0
        return self.ops / self.duration_s / 1e3

    def __repr__(self) -> str:
        return (
            f"RunResult({self.name!r}, ops={self.ops}, "
            f"{self.kiops:.1f} KIOPS, avg={self.latency.mean*1e6:.1f}us)"
        )


class Phase:
    """Context manager measuring a block of store operations.

    Automatic cycle collection is paused for the block
    (:func:`~repro.sim.host.collector_paused`).

    Example::

        with Phase("load", store.system) as phase:
            for i in range(n):
                store.put(key_for(i), value)
        result = phase.result()
    """

    def __init__(self, name: str, system) -> None:
        self.name = name
        self.system = system
        self._start_time: Optional[float] = None
        self._start_counts: Dict[str, int] = {}
        self._start_stats: Dict[str, float] = {}
        self._result: Optional[RunResult] = None

    def __enter__(self) -> "Phase":
        self._paused = collector_paused()
        self._paused.__enter__()
        self._start_time = self.system.clock.now
        recorder = self.system.latency
        self._start_counts = {k: recorder.count(k) for k in recorder.kinds()}
        self._start_stats = self.system.stats.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._paused.__exit__(None, None, None)
        if exc_type is not None:
            return
        self._result = self._measure()

    def _measure(self) -> RunResult:
        duration = self.system.clock.now - self._start_time
        window = self.system.latency.since(self._start_counts)
        per_kind = {k: window.summary(k) for k in window.kinds()}
        end_stats = self.system.stats.snapshot()
        delta = {
            key: end_stats.get(key, 0.0) - self._start_stats.get(key, 0.0)
            for key in end_stats
        }
        return RunResult(
            self.name, window.count(), duration, window.summary(), per_kind, delta
        )

    def result(self) -> RunResult:
        """The phase's metrics (after the ``with`` block exits)."""
        if self._result is None:
            raise RuntimeError("Phase.result() called before the phase finished")
        return self._result


#: Ops' worth of keys, values, op kinds and generator draws a workload
#: makes per column: columns stay this short however long the phase is.
#: The cluster driver's per-client columns use the same bound.
COLUMN_CHUNK = 1024


def columns(n_ops: int):
    """Consecutive op-index ranges of at most :data:`COLUMN_CHUNK`,
    covering ``range(n_ops)``."""
    for start in range(0, n_ops, COLUMN_CHUNK):
        yield range(start, min(start + COLUMN_CHUNK, n_ops))


def issuer(store, batch_size: Optional[int], check_reads: bool = False):
    """The op issuer a phase hands its columns to.

    It has ``gets(keys)``, ``puts(keys, values)``, ``deletes(keys)`` and
    ``rmws(keys, values)`` (lists, issued in order before the call
    returns; read-modify-write pairs always go per op) and ``misses``,
    the reads that found nothing so far.  With a ``batch_size`` a
    call's ops go out through ``multi_*`` in consecutive slices of at
    most that many, so a batch never spans two calls.  With
    ``check_reads`` a miss raises ``AssertionError`` instead: at the
    read, or with a ``batch_size`` when the slice that holds it returns.
    """
    if batch_size is None:
        return _PerOp(store, None, check_reads)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return _Batched(store, batch_size, check_reads)


class _PerOp:
    """One store call per op, in order."""

    def __init__(self, store, batch_size: Optional[int], check_reads: bool) -> None:
        self.store = store
        self.batch_size = batch_size
        self.check_reads = check_reads
        self.misses = 0

    def _missed(self) -> None:
        if self.check_reads:
            raise AssertionError("a read missed a loaded key")
        self.misses += 1

    def gets(self, keys: list) -> None:
        get = self.store.get
        for key in keys:
            if get(key)[0] is None:
                self._missed()

    def puts(self, keys: list, values: list) -> None:
        put = self.store.put
        for key, value in zip(keys, values):
            put(key, value)

    def deletes(self, keys: list) -> None:
        delete = self.store.delete
        for key in keys:
            delete(key)

    def rmws(self, keys: list, values: list) -> None:
        """Read each key, then write its value, one op at a time at any
        batch size: a pair cannot share a batch with the next pair."""
        get = self.store.get
        put = self.store.put
        for key, value in zip(keys, values):
            if get(key)[0] is None:
                self._missed()
            put(key, value)


class _Batched(_PerOp):
    """Each call's ops through ``multi_*``, ``batch_size`` at a time."""

    def gets(self, keys: list) -> None:
        multi_get = self.store.multi_get
        size = self.batch_size
        for at in range(0, len(keys), size):
            for value, __ in multi_get(keys[at:at + size]):
                if value is None:
                    self._missed()

    def puts(self, keys: list, values: list) -> None:
        multi_put = self.store.multi_put
        size = self.batch_size
        for at in range(0, len(keys), size):
            multi_put(list(zip(keys[at:at + size], values[at:at + size])))

    def deletes(self, keys: list) -> None:
        multi_delete = self.store.multi_delete
        size = self.batch_size
        for at in range(0, len(keys), size):
            multi_delete(keys[at:at + size])
