"""The trace recorder: an event bus stamped by the simulated clock.

A :class:`TraceRecorder` attaches to one :class:`~repro.mem.system.HybridMemorySystem`
and collects :class:`~repro.obs.events.TraceEvent` records from three
native hook points:

- the :class:`~repro.kvstore.api.KVStore` base class (foreground op
  spans and stall spans/instants, with a ``cause``);
- the executor's submit-listener API (background flush/compaction job
  spans, one per worker track);
- the devices (per-transfer instants with byte counts).

Tracing is strictly opt-in: a system starts with ``system.obs is None``
and every instrumentation site guards on that, so the disabled cost is
one attribute load per site.  Attach with
``system.attach_tracing()`` / detach with ``system.detach_tracing()``.
"""

from typing import Iterator, List, Optional

from repro.obs.events import (
    CAT_COMPACT,
    CAT_FLUSH,
    CAT_JOB,
    CAT_OP,
    CAT_QUEUE,
    CAT_REPL_ACK,
    CAT_REPL_APPLY,
    CAT_REPL_ELECTION,
    CAT_REPL_SHIP,
    CAT_STALL,
    CAT_TRANSFER,
    CATEGORIES,
    DROP_CAUSES,
    REPL_EVENT_NAMES,
    STALL_CAUSES,
    TraceEvent,
)


class _JobCostScope:
    """Marks transfers emitted inside it as background-job cost."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder

    def __enter__(self) -> "TraceRecorder":
        recorder = self._recorder
        recorder._job_depth += 1
        if recorder._job_depth == 1:
            recorder._job_scope_changed(True)
        return recorder

    def __exit__(self, *exc) -> bool:
        recorder = self._recorder
        recorder._job_depth -= 1
        if recorder._job_depth == 0:
            recorder._job_scope_changed(False)
        return False


class TraceRecorder:
    """Collects typed spans and instants from one simulated machine."""

    def __init__(self, clock, strict: bool = False) -> None:
        self.clock = clock
        self.events: List[TraceEvent] = []
        self._system = None
        # Strict mode: recording an event with an unknown category, an
        # unknown stall cause, or an unknown drop reason raises instead
        # of silently widening the closed vocabularies.  Validation only
        # -- the recorded event stream is byte-identical either way.
        self.strict = strict
        # Nesting depth of job-cost scopes (see :meth:`job_cost`).  Device
        # cost for a background job is computed inline -- during the
        # foreground op or callback that schedules the job -- so without
        # the scope those transfer instants would be indistinguishable
        # from the op's own device traffic.
        self._job_depth = 0

    # ------------------------------------------------------ attach/detach

    def attach(self, system) -> "TraceRecorder":
        """Wire this recorder into ``system``'s hook points."""
        if self._system is not None:
            raise RuntimeError("recorder is already attached")
        if system.obs is not None:
            raise RuntimeError("system already has a recorder attached")
        self._system = system
        system.obs = self
        for device in system.devices():
            device.obs = self
        system.executor.add_submit_listener(self._on_submit)
        return self

    def detach(self) -> None:
        """Unhook from the system; recorded events stay readable."""
        system = self._system
        if system is None:
            return
        self._system = None
        system.obs = None
        for device in system.devices():
            device.obs = None
        system.executor.remove_submit_listener(self._on_submit)

    @property
    def attached(self) -> bool:
        return self._system is not None

    # ------------------------------------------------------------ emission

    def _check_vocab(self, name: str, cat: str, args: Optional[dict]) -> None:
        """Strict-mode guard: reject events outside the closed vocabularies."""
        if cat not in CATEGORIES:
            raise ValueError(
                f"unknown trace category {cat!r}; expected one of {CATEGORIES}"
            )
        repl_names = REPL_EVENT_NAMES.get(cat)
        if repl_names is not None and name not in repl_names:
            raise ValueError(
                f"unknown {cat!r} event name {name!r}; the closed "
                f"vocabulary is {list(repl_names)} "
                "(repro.obs.events.REPL_EVENT_NAMES)"
            )
        if args is None:
            return
        if cat == CAT_STALL:
            cause = args.get("cause")
            if cause not in STALL_CAUSES:
                raise ValueError(
                    f"unknown stall cause {cause!r}; the closed vocabulary is "
                    f"{sorted(STALL_CAUSES)} (repro.obs.events.STALL_CAUSES)"
                )
        elif cat == CAT_QUEUE and name == "drop":
            cause = args.get("cause")
            if cause not in DROP_CAUSES:
                raise ValueError(
                    f"unknown drop reason {cause!r}; the closed vocabulary is "
                    f"{list(DROP_CAUSES)} (repro.obs.events.DROP_CAUSES)"
                )

    def span(
        self,
        track: str,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a closed interval of activity on ``track``."""
        if self.strict:
            self._check_vocab(name, cat, args)
        self.events.append(TraceEvent(track, name, cat, start, end - start, args))

    def instant(
        self,
        track: str,
        name: str,
        cat: str,
        args: Optional[dict] = None,
    ) -> None:
        """Record a point event at the current simulated time."""
        if self.strict:
            self._check_vocab(name, cat, args)
        self.events.append(TraceEvent(track, name, cat, self.clock.now, None, args))

    def transfer(
        self,
        device_name: str,
        op: str,
        nbytes: int,
        sequential: bool,
        seconds: float,
    ) -> None:
        """One device read/write, stamped at the moment it is charged.

        Device costs are *returned* to callers and applied to the clock
        later, so the timestamp is the emission time -- deterministic,
        and within the enclosing operation's span.  ``seconds`` is the
        simulated duration the transfer will charge; inside a
        :meth:`job_cost` scope the event is tagged ``{"job": True}`` so
        latency attribution can exclude it from foreground device time.
        """
        args = {"bytes": nbytes, "seq": sequential, "seconds": seconds}
        if self._job_depth:
            args["job"] = True
        self.events.append(
            TraceEvent(
                f"dev:{device_name}",
                op,
                CAT_TRANSFER,
                self.clock.now,
                None,
                args,
            )
        )

    def job_cost(self) -> _JobCostScope:
        """Scope under which transfers count as background-job cost.

        Stores wrap the inline cost computation of every flush/compaction
        they schedule (``with system.job_scope(): ...``), which routes
        here when tracing is attached.
        """
        return _JobCostScope(self)

    def _job_scope_changed(self, inside: bool) -> None:
        """Hook: the outermost :meth:`job_cost` scope was entered or left."""

    def _on_submit(self, job, meta) -> None:
        """Executor hook: every background job becomes a worker-track span.

        The span's ``wait_s`` argument is how long the job sat queued
        behind its worker (start minus submission time) -- the executor
        queue-wait component of critical-path analysis.
        """
        if meta is None:
            cat, args = CAT_JOB, {}
        else:
            cat = meta.get("cat", CAT_JOB)
            args = {k: v for k, v in meta.items() if k != "cat"}
        if self.strict and cat not in CATEGORIES:
            raise ValueError(
                f"unknown trace category {cat!r} in job meta for {job.name!r}"
            )
        args["wait_s"] = job.start - job.submitted_at
        self.events.append(
            TraceEvent(
                f"worker:{job.worker.name}",
                job.name,
                cat,
                job.start,
                job.end - job.start,
                args,
            )
        )

    # ------------------------------------------------------------- queries

    def tracks(self) -> List[str]:
        """Track names in order of first appearance."""
        seen = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    def stall_seconds_by_cause(self) -> dict:
        """Total stalled simulated seconds per cause, over all stall events.

        Interval stalls contribute their span duration; cumulative
        slowdown instants contribute their ``seconds`` argument.
        """
        totals: dict = {}
        for event in self.events:
            if event.cat != CAT_STALL:
                continue
            cause = (event.args or {}).get("cause", "unknown")
            amount = event.dur if event.dur is not None else (
                (event.args or {}).get("seconds", 0.0)
            )
            totals[cause] = totals.get(cause, 0.0) + amount
        return totals

    def counts_by_category(self) -> dict:
        """Event counts per category, for summaries."""
        counts: dict = {}
        for event in self.events:
            counts[event.cat] = counts.get(event.cat, 0) + 1
        return counts

    def worker_spans(self) -> Iterator[TraceEvent]:
        """Spans on worker tracks (background jobs)."""
        return (e for e in self.events if e.is_span and e.track.startswith("worker:"))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        return f"TraceRecorder({len(self.events)} events, {state})"


# Re-exported so instrumentation sites can import categories from one place.
__all__ = [
    "TraceRecorder",
    "CAT_OP",
    "CAT_STALL",
    "CAT_FLUSH",
    "CAT_COMPACT",
    "CAT_JOB",
    "CAT_TRANSFER",
    "CAT_QUEUE",
    "CAT_REPL_SHIP",
    "CAT_REPL_APPLY",
    "CAT_REPL_ACK",
    "CAT_REPL_ELECTION",
]
