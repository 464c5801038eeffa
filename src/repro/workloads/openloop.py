"""Open-loop load generation.

YCSB and db_bench are *closed-loop*: the next operation is issued only
when the previous one returns, so write stalls slow the client down
instead of piling up.  Under an *open-loop* arrival process (requests
arrive at a fixed rate whether or not the store is ready) a stall also
queues every request behind it -- the queueing delay that dominates
production tail latency.

``run_open_loop`` replays an operation stream with exponential
inter-arrival gaps and reports *response times* (completion minus
arrival), which include time spent waiting for the store.
"""

import math
from typing import Callable

from repro.sim.host import collector_paused
from repro.sim.latency import LatencyRecorder, LatencySummary
from repro.sim.rng import XorShiftRng


class OpenLoopResult:
    """Response-time statistics for one open-loop run."""

    def __init__(self, ops: int, offered_rate: float, achieved_rate: float,
                 response: LatencySummary, max_queue_delay: float) -> None:
        self.ops = ops
        self.offered_rate = offered_rate
        self.achieved_rate = achieved_rate
        self.response = response
        self.max_queue_delay = max_queue_delay

    @property
    def saturated(self) -> bool:
        """True when the store could not keep up with the offered load."""
        return self.achieved_rate < 0.95 * self.offered_rate

    def __repr__(self) -> str:
        return (
            f"OpenLoopResult(offered={self.offered_rate:.0f}/s, "
            f"achieved={self.achieved_rate:.0f}/s, "
            f"p99.9={self.response.p999 * 1e6:.1f}us)"
        )


@collector_paused()
def run_open_loop(
    store,
    operations: Callable[[int], None],
    n_ops: int,
    rate_per_s: float,
    seed: int = 1,
) -> OpenLoopResult:
    """Issue ``n_ops`` calls of ``operations(i)`` at ``rate_per_s``.

    ``operations`` performs exactly one store operation per call (the
    store advances the simulated clock by its service time).  Arrivals
    are a Poisson process scheduled independently; if the store is still
    busy when a request arrives, the request queues and its response time
    includes the wait.
    """
    if not 0 < rate_per_s < math.inf:  # NaN included
        raise ValueError(f"rate must be positive and finite, got {rate_per_s}")
    clock = store.system.clock
    rng = XorShiftRng(seed)
    recorder = LatencyRecorder()
    arrival = clock.now
    max_queue = 0.0

    for i in range(n_ops):
        arrival += -math.log(1.0 - rng.next_float()) / rate_per_s
        # the server (store) is free at clock.now; the request starts at
        # whichever is later
        if arrival > clock.now:
            clock.advance_to(arrival)
            store.system.executor.settle()
        queue_delay = max(0.0, clock.now - arrival)
        max_queue = max(max_queue, queue_delay)
        operations(i)
        recorder.record("response", clock.now, clock.now - arrival)

    total_span = 0.0
    if n_ops:
        at, latency = next(recorder.samples_since("response", 0))
        last_at, __ = next(recorder.samples_since("response", n_ops - 1))
        total_span = last_at - (at - latency)
    achieved = n_ops / total_span if total_span > 0 else 0.0
    return OpenLoopResult(
        ops=n_ops,
        offered_rate=rate_per_s,
        achieved_rate=achieved,
        response=recorder.summary("response"),
        max_queue_delay=max_queue,
    )
