"""Phase measurement over the simulated clock, and the op issuers.

A :class:`Phase` brackets a stretch of operations against one store and
produces a :class:`RunResult`: simulated duration, throughput, and the
latency summary of exactly the operations issued inside the phase.

A workload builds its op stream once and hands it to :func:`issue_puts`,
:func:`issue_gets` or :func:`issue_deletes`: ``batch_size=None`` is one
store call per op, a number sends chunks of that many ops through the
``multi_*`` entry point.  Only wall-clock time differs between the two
(docs/performance.md).
"""

from itertools import islice
from typing import Dict, Iterable, Iterator, Optional

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


def check_batch_size(batch_size: int) -> None:
    """Reject a chunk length below one; a per-op run has none to check."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def _chunks(stream: Iterable, batch_size: int) -> Iterator[list]:
    """Lists of up to ``batch_size`` consecutive items, drawn as issued."""
    check_batch_size(batch_size)
    stream = iter(stream)
    while True:
        chunk = list(islice(stream, batch_size))
        if not chunk:
            return
        yield chunk


def issue_puts(store, items: Iterable, batch_size: Optional[int]) -> None:
    """Write every ``(key, value)`` of ``items``, in order."""
    if batch_size is None:
        put = store.put
        for key, value in items:
            put(key, value)
    else:
        for chunk in _chunks(items, batch_size):
            store.multi_put(chunk)


def issue_gets(store, keys: Iterable[bytes], batch_size: Optional[int]) -> int:
    """Read every key of ``keys``, in order; returns how many missed."""
    misses = 0
    if batch_size is None:
        get = store.get
        for key in keys:
            if get(key)[0] is None:
                misses += 1
    else:
        for chunk in _chunks(keys, batch_size):
            for value, __ in store.multi_get(chunk):
                if value is None:
                    misses += 1
    return misses


def issue_deletes(store, keys: Iterable[bytes], batch_size: Optional[int]) -> None:
    """Delete every key of ``keys``, in order."""
    if batch_size is None:
        delete = store.delete
        for key in keys:
            delete(key)
    else:
        for chunk in _chunks(keys, batch_size):
            store.multi_delete(chunk)
