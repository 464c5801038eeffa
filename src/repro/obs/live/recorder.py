"""The always-on live recorder: a retention policy on the TraceRecorder bus.

:class:`LiveRecorder` subclasses :class:`~repro.obs.recorder.TraceRecorder`
and replaces only its sink: the hook points (KVStore spans, the
executor's and the devices' ``obs`` slots) build the same events, so
everything downstream -- Chrome-trace export, gantt rendering,
attribution -- works on a live trace unchanged.  What changes is what
gets *kept*:

- Foreground op spans are sampled: head-sampled runs (splitmix64 over op
  sequence numbers, see :mod:`repro.obs.live.sampling`), plus every op
  whose latency exceeds the rolling tail percentile, plus every op that
  touched a stall.  Exact seen/retained bookkeeping is kept per decision
  class so attribution can rescale.
- Router queue spans ride with the head decision of the op they precede;
  drops are always kept.
- Stall, flush, compaction, background-job, and transfer events are rare
  and diagnostic, so they stay full fidelity -- except transfers, whose
  device hooks are toggled off outside head-sampled runs so unsampled
  ops pay only the existing ``obs is None`` guard.  Flush/compaction
  traffic reaches the recorder through the devices' ``job_obs`` slot
  (``system.job_scope()``), whatever the toggle, so it is always
  traced; tail-retained ops keep their op span but not their transfers
  (a documented trade: the tail decision only exists after the op ran).
- Every op, queue span, stall, drop, transfer and background job
  additionally enters the flight recorder's ring -- the same event
  object, kept or not -- and each op span's duration feeds the windowed
  aggregation on the simulated clock, whose closed windows feed the
  flight recorder's burn-rate rule.

Sampling decisions are pure functions of ``(seed, op sequence number)``
and the simulated event stream, so two identical runs retain identical
event sets -- live traces are as replayable as full ones.  The simulation
itself is never touched: clock, stats, and store state are byte-identical
with the live plane attached or not.
"""

from typing import Optional

from repro.obs.analyze.slo import SloObjective
from repro.obs.events import CAT_OP, CAT_QUEUE, CAT_STALL, TraceEvent
from repro.obs.live.flight import FlightRecorder
from repro.obs.live.sampling import HEAD_RATE, HEAD_RUN, HeadSampler, TailSampler
from repro.obs.live.window import WindowAggregator
from repro.obs.recorder import TraceRecorder

#: Fraction of ops the ``slo_threshold_s`` objective expects to meet.
SLO_TARGET = 0.999


class LiveRecorder(TraceRecorder):
    """Sampling trace recorder + flight ring + windowed aggregation.

    ``seed`` keys the head sampler; ``slo_threshold_s`` (per-op latency
    objective) arms the burn-rate flight trigger and the windows' bad-op
    count; ``stall_alert_s`` arms the stall flight trigger.  Everything
    else about the plane is a constant next to the component that reads
    it (docs/observability.md lists them).
    """

    def __init__(
        self,
        seed: int = 1,
        slo_threshold_s: Optional[float] = None,
        stall_alert_s: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.keep = self._retain
        self.head = HeadSampler(seed)
        self.tail = TailSampler()
        slo = None
        if slo_threshold_s is not None:
            slo = SloObjective("live-latency", slo_threshold_s, SLO_TARGET)
        self.flight = FlightRecorder(stall_alert_s=stall_alert_s, slo=slo)
        self.flight.context_provider = self._dump_context
        self.window = WindowAggregator(slo_threshold_s)
        # Ops retained by the tail/stall rules *only* (head-retained ops
        # are counted by the head sampler itself); seen == head.seen.
        self.retained_tail = 0
        self.retained_stall = 0
        self.queue_seen = 0
        self.queue_kept = 0
        # A stall happened since the last op completed: stall cost is
        # charged inside the op that waited, so that op is retained.
        self._stall_pending = False
        self._devices = ()
        self._devices_on = False

    # ------------------------------------------------------ attach/detach

    def _hook(self, system) -> None:
        super()._hook(system)
        self._devices = tuple(system.devices())
        self._devices_on = True
        self._set_devices(self.head.live)

    def detach(self) -> None:
        system = self._system
        if system is None:
            return
        closed = self.window.close(self.clock.now, system)
        if closed is not None:
            self.flight.on_window(*closed)
        stats = system.stats
        meta = self.sampling_meta()
        stats.add("live.ops_seen", float(meta["ops_seen"]))
        stats.add("live.ops_retained", float(meta["ops_retained"]))
        stats.add("live.windows", float(self.window.closed))
        stats.add("live.flight_dumps", float(len(self.flight.dumps)))
        # Base detach nulls every device hook regardless of toggle state.
        super().detach()

    def _set_devices(self, on: bool) -> None:
        if on == self._devices_on:
            return
        self._devices_on = on
        obs = self if on else None
        for device in self._devices:
            device.obs = obs

    # ------------------------------------------------------------ the sink

    def _retain(self, event: TraceEvent) -> None:
        """The retention policy: keep, ring, and feed triggers and windows."""
        cat = event.cat
        flight = self.flight
        if cat == CAT_OP:
            dur = event.dur
            keep = self.head.advance()
            if self.tail.observe(dur) and not keep:
                self.retained_tail += 1
                keep = True
            if self._stall_pending:
                self._stall_pending = False
                if not keep:
                    self.retained_stall += 1
                    keep = True
            if keep:
                self.events.append(event)
            flight.record(event)
            window = self.window
            window.latencies.append(dur)
            # Ops end at emission: the clock is the span's exact end.
            end = self.clock.now
            if end >= window.next_edge:
                closed = window.maybe_tick(end, self._system)
                if closed is not None:
                    flight.on_window(*closed)
            if self.head.live != self._devices_on:
                self._set_devices(self.head.live)
        elif cat == CAT_QUEUE and event.dur is not None:
            # A router queue span precedes the store op it queued for,
            # so the *current* head decision is that op's decision.
            self.queue_seen += 1
            flight.record(event)
            if self.head.live:
                self.queue_kept += 1
                self.events.append(event)
        else:
            # Anything else (rare, diagnostic) stays full fidelity.
            # Transfers only arrive while the device hooks are enabled
            # (inside a head-sampled run) or tagged as job cost.
            self.events.append(event)
            if cat == CAT_STALL:
                # Stall cost is charged inside the op that waited, so
                # that op is retained.
                self._stall_pending = True
            flight.record(event)

    # ------------------------------------------------------------- queries

    def sampling_meta(self) -> dict:
        """Exact sampling bookkeeping, for attribution rescaling."""
        retained = self.head.kept + self.retained_tail + self.retained_stall
        return {
            "seed": self.head.seed,
            "head_rate": HEAD_RATE,
            "head_run": HEAD_RUN,
            "tail": self.tail.as_dict(),
            "ops_seen": self.head.seen,
            "ops_retained": retained,
            "retained_head": self.head.kept,
            "retained_tail": self.retained_tail,
            "retained_stall": self.retained_stall,
            "scale": (self.head.seen / retained) if retained else None,
            "queue_seen": self.queue_seen,
            "queue_retained": self.queue_kept,
        }

    def _dump_context(self) -> dict:
        return {"sampling": self.sampling_meta(), "windows": self.window.rows[-16:]}

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        meta = self.sampling_meta()
        return (
            f"LiveRecorder({meta['ops_retained']}/{meta['ops_seen']} ops "
            f"retained, {len(self.events)} events, {state})"
        )
