"""Background workers and jobs for the discrete-event simulation.

A :class:`Worker` models one background thread (for example, one compaction
thread per LSM level in MioDB's parallel compaction).  Jobs submitted to the
same worker serialize; jobs on different workers overlap in simulated time.

A job's *effect* (its completion callback) is applied when the simulation is
"settled" up to a given instant, so foreground code observes exactly the
background work that would have finished by then.  Callbacks may submit
further jobs (compaction cascades); the settle loop keeps draining until no
job completes at or before the settle horizon.
"""

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.sim.host import collector_paused

_INF = math.inf


class Job:
    """A unit of background work with a fixed simulated duration."""

    __slots__ = (
        "name",
        "worker",
        "start",
        "end",
        "submitted_at",
        "_callback",
        "done",
    )

    def __init__(
        self,
        name: str,
        worker: "Worker",
        start: float,
        end: float,
        callback: Optional[Callable[[], None]],
        submitted_at: float,
    ) -> None:
        self.name = name
        self.worker = worker
        self.start = start
        self.end = end
        #: Simulated time the job was submitted; ``start - submitted_at``
        #: is how long it queued behind its worker (tracing reports it).
        self.submitted_at = submitted_at
        self._callback = callback
        self.done = False

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"Job({self.name!r}, [{self.start:.6f}, {self.end:.6f}], {state})"


class Worker:
    """A simulated background thread; jobs on one worker run back to back."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_until = 0.0
        self.jobs_run = 0

    def __repr__(self) -> str:
        return f"Worker({self.name!r}, busy_until={self.busy_until:.6f})"


class Executor:
    """Schedules jobs on workers and applies their effects in time order."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self._heap: List = []
        self._tiebreak = itertools.count()
        self._workers = {}
        #: End of the earliest pending job, or ``math.inf`` when idle:
        #: background work is due once ``next_due <= clock.now``.
        self.next_due = math.inf
        #: The attached trace recorder, or None: told of every submitted
        #: job (``obs.on_submit(job, meta)``) with its precomputed start
        #: and end times.  It must not mutate the job.
        self.obs = None

    def worker(self, name: str) -> Worker:
        """Return the named worker, creating it on first use."""
        existing = self._workers.get(name)
        if existing is None:
            existing = Worker(name)
            self._workers[name] = existing
        return existing

    @property
    def workers(self) -> List[Worker]:
        """All workers created so far, in creation order."""
        return list(self._workers.values())

    def submit(
        self,
        worker: Worker,
        duration: float,
        callback: Optional[Callable[[], None]] = None,
        name: str = "job",
        meta: Optional[dict] = None,
    ) -> Job:
        """Queue ``duration`` seconds of work on ``worker``.

        The job starts when the worker is free (but never before the
        current simulated time) and its callback fires when the
        simulation settles past its end time.
        ``meta`` is opaque annotation passed through to :attr:`obs`
        (e.g. the trace category and byte counts of a flush).
        """
        if not 0 <= duration < _INF:  # NaN, inf: no later job would settle
            raise ValueError(f"job duration must be finite and >= 0, got {duration}")
        now = self.clock.now
        start = worker.busy_until
        if start < now:
            start = now
        end = start + duration
        worker.busy_until = end
        worker.jobs_run += 1
        job = Job(name, worker, start, end, callback, now)
        heappush(self._heap, (end, next(self._tiebreak), job))
        if end < self.next_due:
            self.next_due = end
        obs = self.obs
        if obs is not None:
            obs.on_submit(job, meta)
        return job

    def settle(self) -> int:
        """Apply effects of every job that ended by the current clock time.

        Returns the number of job callbacks applied.  Callbacks may
        submit new jobs; those are drained too if they also finish
        within the horizon.

        The skip rule: when ``next_due`` is after ``clock.now``, this
        call applies nothing, so a hot caller may test
        ``executor.next_due <= clock.now`` and skip it otherwise.  The
        test must read ``clock.now`` afresh for each executor, because a
        callback applied by an earlier settle may advance the clock.
        """
        horizon = self.clock.now
        heap = self._heap
        applied = 0
        while self.next_due <= horizon:
            job = heappop(heap)[2]
            self.next_due = heap[0][0] if heap else _INF
            job.done = True
            if job._callback is not None:
                job._callback()
            applied += 1
        return applied

    def wait_for(self, job: Job) -> float:
        """Advance the clock to the job's completion and settle.

        This models a foreground stall: the caller blocks until the
        background job finishes.  Returns the stall duration (zero when
        the job had already completed).
        """
        before = self.clock.now
        self.clock.advance_to(job.end)
        self.settle()
        return self.clock.now - before

    @collector_paused()
    def drain(self) -> float:
        """Run the simulation until no background work remains.

        Returns the simulated time at which the last job finished (or the
        current time when there was nothing pending).  Used at the end of
        workloads to let compactions quiesce before measuring state.
        """
        while self._heap:
            self.clock.advance_to(self.next_due)
            self.settle()
        return self.clock.now

    def crash_reset(self) -> int:
        """Drop all pending jobs and free the workers (simulated reboot).

        Pending callbacks belong to the crashed process and never run;
        recovery code rebuilds state from persistent structures instead.
        Returns the number of jobs dropped.
        """
        dropped = len(self._heap)
        self._heap.clear()
        self.next_due = math.inf
        for worker in self._workers.values():
            worker.busy_until = self.clock.now
        return dropped

    @property
    def pending(self) -> int:
        """Number of jobs whose effects have not yet been applied."""
        return len(self._heap)


# ---------------------------------------------------------------------------
# Machines on one clock.  A cluster or replica group runs one executor per
# simulated machine, all sharing one clock; these three functions are the
# only rules for driving them together.  Each takes the executors in a
# fixed order (shards in order, then members in order) and visits them in
# that order, which the pinned outputs depend on.


def settle_due(executors) -> None:
    """Settle every executor with a job due, in list order.

    Applies :meth:`Executor.settle`'s skip rule against the one shared
    clock, read again after every settle (a callback may have moved it).
    """
    clock = executors[0].clock
    now = clock.now
    for executor in executors:
        if executor.next_due <= now:
            executor.settle()
            now = clock.now


def advance(executors) -> bool:
    """Jump the shared clock to the earliest completion and settle.

    Returns False, with the clock unmoved, when every executor is idle.
    """
    deadline = _INF
    for executor in executors:
        if executor.next_due < deadline:
            deadline = executor.next_due
    if deadline == _INF:
        return False
    executors[0].clock.advance_to(deadline)
    settle_due(executors)
    return True


@collector_paused()
def drain_all(executors) -> None:
    """Drain each busy executor in turn until a whole pass finds all idle.

    One executor is drained fully before the next is looked at; draining
    it advances the shared clock, and its callbacks may give an executor
    already passed new work, hence the repeated passes.
    """
    busy = True
    while busy:
        busy = False
        for executor in executors:
            if executor._heap:
                executor.drain()
                busy = True
