"""Phase measurement over the simulated clock.

A :class:`Phase` brackets a stretch of operations against one store and
produces a :class:`RunResult`: simulated duration, throughput, and the
latency summary of exactly the operations issued inside the phase.
"""

from typing import Dict, Optional

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
        self._start_time = self.system.clock.now
        recorder = self.system.latency
        self._start_counts = {k: recorder.count(k) for k in recorder.kinds()}
        self._start_stats = self.system.stats.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
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
