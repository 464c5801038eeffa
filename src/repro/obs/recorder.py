"""The trace recorder: an event bus stamped by the simulated clock.

A :class:`TraceRecorder` attaches to one :class:`~repro.mem.system.HybridMemorySystem`
and collects :class:`~repro.obs.events.TraceEvent` records from three
native hook points:

- the :class:`~repro.kvstore.api.KVStore` base class (foreground op
  spans and stall spans/instants, with a ``cause``);
- the executor's ``obs`` slot (background flush/compaction job spans,
  one per worker track);
- the devices (per-transfer instants with byte counts).

Every hook builds one event and hands it to :attr:`TraceRecorder.keep`,
the one place an event is kept: keep-all here, a retention policy in
:class:`~repro.obs.live.recorder.LiveRecorder`.  Readers take the kept
events classified once, from :meth:`TraceRecorder.index`; one of them,
:func:`check_vocabulary`, holds a run to the closed vocabularies.

Each hook point is an ``obs`` slot -- ``system.obs``, ``executor.obs``,
``device.obs`` -- that :meth:`TraceRecorder.attach` sets and
:meth:`TraceRecorder.detach` clears.  Tracing is strictly opt-in: every
slot starts as None and every instrumentation site guards on that, so
the disabled cost is one attribute load per site.  Attach with
``system.attach_tracing()`` / detach with ``system.detach_tracing()``.
"""

from typing import Dict, List, Optional

from repro.obs.events import (
    CAT_JOB,
    CAT_OP,
    CAT_QUEUE,
    CAT_REPL_ACK,
    CAT_STALL,
    CAT_TRANSFER,
    CATEGORIES,
    DROP_CAUSES,
    REPL_EVENT_NAMES,
    STALL_CAUSES,
    TraceEvent,
    stall_seconds,
)

#: Categories charged to the foreground op span that follows them.
_CHARGED = frozenset({CAT_STALL, CAT_QUEUE, CAT_REPL_ACK})
#: The causal replication categories (``repl.*``).
_REPL = frozenset(REPL_EVENT_NAMES)


class EventIndex:
    """A recorder's events classified in one pass, emission order kept.

    - ``by_cat``: category -> its events, categories in first-appearance
      order (:meth:`of` reads one);
    - ``tracks``: track names in first-appearance order;
    - ``workers``: background job spans (``worker:*`` tracks);
    - ``foreground``: what per-op attribution walks -- foreground op
      spans and the stalls, queue waits, replication acks and non-job
      transfers charged to them;
    - ``repl``: the causal ``repl.*`` events.
    """

    __slots__ = ("size", "by_cat", "tracks", "workers", "foreground", "repl")

    def __init__(self, events: List[TraceEvent]) -> None:
        self.size = len(events)
        by_cat: Dict[str, List[TraceEvent]] = {}
        tracks: Dict[str, None] = {}
        workers: List[TraceEvent] = []
        foreground: List[TraceEvent] = []
        repl: List[TraceEvent] = []
        for event in events:
            cat = event.cat
            track = event.track
            bucket = by_cat.get(cat)
            if bucket is None:
                bucket = by_cat[cat] = []
            bucket.append(event)
            if track not in tracks:
                tracks[track] = None
            if cat == CAT_TRANSFER:
                if not (event.args or {}).get("job"):
                    foreground.append(event)
                continue
            if cat == CAT_OP:
                if track == "foreground":
                    foreground.append(event)
            elif cat in _CHARGED:
                foreground.append(event)
            if event.dur is not None and track.startswith("worker:"):
                workers.append(event)
            if cat in _REPL:
                repl.append(event)
        self.by_cat = by_cat
        self.tracks = list(tracks)
        self.workers = workers
        self.foreground = foreground
        self.repl = repl

    def of(self, cat: str) -> List[TraceEvent]:
        """The events of one category (empty when there are none)."""
        return self.by_cat.get(cat, [])


def check_vocabulary(recorder) -> None:
    """Raise ``ValueError`` at the first kept event outside the closed
    vocabularies: an unknown category, ``repl.*`` name, stall cause or
    drop reason.  Recording never validates; this reads the spine after
    the run, so an event stream is byte-identical checked or not.
    """
    index = recorder.index()
    for cat, events in index.by_cat.items():
        if cat not in CATEGORIES:
            raise ValueError(
                f"unknown trace category {cat!r}; expected one of {CATEGORIES}"
            )
        names = REPL_EVENT_NAMES.get(cat)
        if names is None:
            continue
        for event in events:
            if event.name not in names:
                raise ValueError(
                    f"unknown {cat!r} event name {event.name!r}; the closed "
                    f"vocabulary is {list(names)} (repro.obs.events.REPL_EVENT_NAMES)"
                )
    for event in index.of(CAT_STALL):
        cause = (event.args or {}).get("cause")
        if cause not in STALL_CAUSES:
            raise ValueError(
                f"unknown stall cause {cause!r}; the closed vocabulary is "
                f"{sorted(STALL_CAUSES)} (repro.obs.events.STALL_CAUSES)"
            )
    for event in index.of(CAT_QUEUE):
        cause = (event.args or {}).get("cause")
        if event.name == "drop" and cause not in DROP_CAUSES:
            raise ValueError(
                f"unknown drop reason {cause!r}; the closed vocabulary is "
                f"{list(DROP_CAUSES)} (repro.obs.events.DROP_CAUSES)"
            )


class TraceRecorder:
    """Collects typed spans and instants from one simulated machine."""

    def __init__(self) -> None:
        #: The attached system's clock (kept after detach, for readers).
        self.clock = None
        self.events: List[TraceEvent] = []
        #: The sink every hook hands its event to, and the only place an
        #: event is kept.  A subclass with a retention policy replaces it.
        self.keep = self.events.append
        self._index: Optional[EventIndex] = None
        self._system = None

    # ------------------------------------------------------ attach/detach

    def attach(self, system) -> "TraceRecorder":
        """Wire this recorder into ``system``'s hook points."""
        if self._system is not None:
            raise RuntimeError("recorder is already attached")
        self._hook(system)
        return self

    def detach(self) -> None:
        """Unhook from the system; recorded events stay readable."""
        if self._system is not None:
            self._unhook()

    def move(self, system) -> None:
        """Re-hook this attached recorder onto ``system``, state kept.

        A replica group's election calls it so the recorder follows the
        new leader.  Nothing is finalised: events, counters and a live
        recorder's open window carry over as if one machine had run
        throughout.
        """
        self._unhook()
        self._hook(system)

    def _hook(self, system) -> None:
        if system.obs is not None:
            raise RuntimeError("system already has a recorder attached")
        self._system = system
        self.clock = system.clock
        system.obs = self
        system.executor.obs = self
        for device in system.devices():
            device.obs = self

    def _unhook(self) -> None:
        system = self._system
        self._system = None
        system.obs = None
        system.executor.obs = None
        for device in system.devices():
            device.obs = None

    @property
    def attached(self) -> bool:
        return self._system is not None

    # ------------------------------------------------------------ emission

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
        self.keep(TraceEvent(track, name, cat, start, end - start, args))

    def instant(
        self,
        track: str,
        name: str,
        cat: str,
        args: Optional[dict] = None,
    ) -> None:
        """Record a point event at the current simulated time."""
        self.keep(TraceEvent(track, name, cat, self.clock.now, None, args))

    def transfer(
        self,
        device_name: str,
        op: str,
        nbytes: int,
        sequential: bool,
        seconds: float,
        job: bool = False,
    ) -> None:
        """One device read/write, stamped at the moment it is charged.

        Device costs are *returned* to callers and applied to the clock
        later, so the timestamp is the emission time -- deterministic,
        and within the enclosing operation's span.  ``seconds`` is the
        simulated duration the transfer will charge.  A device charges
        with ``job`` set inside ``system.job_scope()`` (the cost of a
        flush or compaction being scheduled); the event is then tagged
        ``{"job": True}`` so latency attribution can exclude it from
        foreground device time.
        """
        args = {"bytes": nbytes, "seq": sequential, "seconds": seconds}
        if job:
            args["job"] = True
        self.keep(
            TraceEvent(
                f"dev:{device_name}",
                op,
                CAT_TRANSFER,
                self.clock.now,
                None,
                args,
            )
        )

    def on_submit(self, job, meta) -> None:
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
        args["wait_s"] = job.start - job.submitted_at
        self.keep(
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

    def index(self) -> EventIndex:
        """The kept events classified once; rebuilt after new ones arrive."""
        index = self._index
        if index is None or index.size != len(self.events):
            index = self._index = EventIndex(self.events)
        return index

    def stall_seconds_by_cause(self) -> dict:
        """Total stalled simulated seconds per cause, over all stall events."""
        totals: dict = {}
        for event in self.index().of(CAT_STALL):
            cause = (event.args or {}).get("cause", "unknown")
            totals[cause] = totals.get(cause, 0.0) + stall_seconds(event)
        return totals

    def counts_by_category(self) -> dict:
        """Event counts per category, for summaries."""
        return {cat: len(events) for cat, events in self.index().by_cat.items()}

    def worker_spans(self) -> List[TraceEvent]:
        """Spans on worker tracks (background jobs), in emission order."""
        return self.index().workers

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        return f"TraceRecorder({len(self.events)} events, {state})"
