"""The always-on live recorder: sampled tracing over the TraceRecorder bus.

:class:`LiveRecorder` subclasses :class:`~repro.obs.recorder.TraceRecorder`
and plugs into the exact same hook points (KVStore spans, executor submit
listener, device transfer hooks), so everything downstream -- Chrome-trace
export, gantt rendering, attribution -- works on a live trace unchanged.
What changes is what gets *kept*:

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
  ops pay only the existing ``obs is None`` guard.  Background-job cost
  scopes re-enable the hooks, so flush/compaction traffic is always
  traced; tail-retained ops keep their op span but not their transfers
  (a documented trade: the tail decision only exists after the op ran).
- Every event additionally feeds the flight recorder's ring, and op
  completions drive the windowed aggregation on the simulated clock.

Sampling decisions are pure functions of ``(seed, op sequence number)``
and the simulated event stream, so two identical runs retain identical
event sets -- live traces are as replayable as full ones.  The simulation
itself is never touched: clock, stats, and store state are byte-identical
with the live plane attached or not.
"""

import bisect
from typing import List, Optional

from repro.obs.analyze.slo import BurnRateRule, SloObjective
from repro.obs.events import (
    CAT_OP,
    CAT_QUEUE,
    CAT_STALL,
    CAT_TRANSFER,
    TraceEvent,
)
from repro.obs.live.flight import FlightRecorder
from repro.obs.live.sampling import HeadSampler, TailSampler
from repro.obs.live.window import WindowAggregator
from repro.obs.recorder import TraceRecorder


class LiveConfig:
    """Tuning knobs for the live telemetry plane (all deterministic)."""

    __slots__ = (
        "seed", "head_rate", "head_run", "tail_percentile", "tail_window",
        "tail_refresh", "window_s", "flight_capacity", "stall_alert_s",
        "drop_burst_n", "drop_burst_s", "slo_threshold_s", "slo_target",
        "burn_short_s", "burn_long_s", "burn_factor", "max_dumps",
    )

    def __init__(
        self,
        seed: int = 1,
        head_rate: float = 1.0 / 64.0,
        head_run: int = 16,
        tail_percentile: float = 99.0,
        tail_window: int = 512,
        tail_refresh: int = 256,
        window_s: float = 1e-3,
        flight_capacity: int = 4096,
        stall_alert_s: Optional[float] = None,
        drop_burst_n: int = 8,
        drop_burst_s: float = 1e-3,
        slo_threshold_s: Optional[float] = None,
        slo_target: float = 0.999,
        burn_short_s: float = 5e-3,
        burn_long_s: float = 50e-3,
        burn_factor: float = 2.0,
        max_dumps: int = 4,
    ) -> None:
        self.seed = seed
        self.head_rate = head_rate
        self.head_run = head_run
        self.tail_percentile = tail_percentile
        self.tail_window = tail_window
        self.tail_refresh = tail_refresh
        self.window_s = window_s
        self.flight_capacity = flight_capacity
        self.stall_alert_s = stall_alert_s
        self.drop_burst_n = drop_burst_n
        self.drop_burst_s = drop_burst_s
        self.slo_threshold_s = slo_threshold_s
        self.slo_target = slo_target
        self.burn_short_s = burn_short_s
        self.burn_long_s = burn_long_s
        self.burn_factor = burn_factor
        self.max_dumps = max_dumps

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _LiveJobScope:
    """Job-cost scope that re-enables device hooks for background work."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: "LiveRecorder") -> None:
        self._recorder = recorder

    def __enter__(self) -> "LiveRecorder":
        recorder = self._recorder
        recorder._job_depth += 1
        if recorder._job_depth == 1:
            recorder._set_devices(True)
        return recorder

    def __exit__(self, *exc) -> bool:
        recorder = self._recorder
        recorder._job_depth -= 1
        if recorder._job_depth == 0:
            recorder._set_devices(recorder.head.live)
        return False


class LiveRecorder(TraceRecorder):
    """Sampling trace recorder + flight ring + windowed aggregation."""

    # The batched KVStore paths hand us whole batches (one ``op_batch``
    # call, array arguments) instead of per-op spans -- the vectorised
    # sampling below depends on it.
    coalesce_ops = True

    def __init__(
        self, clock, config: Optional[LiveConfig] = None, shard_id=None
    ) -> None:
        super().__init__(clock, strict=False)
        cfg = config if config is not None else LiveConfig()
        self.config = cfg
        self.shard_id = shard_id
        self.head = HeadSampler(cfg.seed, cfg.head_rate, cfg.head_run)
        self.tail = TailSampler(
            cfg.tail_percentile, cfg.tail_window, cfg.tail_refresh
        )
        slo = None
        if cfg.slo_threshold_s is not None:
            slo = SloObjective(
                "live-latency", cfg.slo_threshold_s, cfg.slo_target
            )
        self.flight = FlightRecorder(
            capacity=cfg.flight_capacity,
            stall_alert_s=cfg.stall_alert_s,
            drop_burst_n=cfg.drop_burst_n,
            drop_burst_s=cfg.drop_burst_s,
            slo=slo,
            burn_rule=BurnRateRule(
                cfg.burn_short_s, cfg.burn_long_s, cfg.burn_factor
            ),
            max_dumps=cfg.max_dumps,
        )
        self.flight.context_provider = self._dump_context
        self.window: Optional[WindowAggregator] = None
        self._slo_threshold = cfg.slo_threshold_s
        # Ops retained by the tail/stall rules *only* (head-retained ops
        # are counted by the head sampler itself); seen == head.seen.
        self.retained_tail = 0
        self.retained_stall = 0
        self.queue_seen = 0
        self.queue_kept = 0
        # Timestamps of stalls not yet pinned to an op; the op (or
        # batch) completing after a stall consumes them and is retained.
        self._pending_stalls: List[float] = []
        self._devices = ()
        self._devices_on = False

    # ------------------------------------------------------ attach/detach

    def attach(self, system) -> "LiveRecorder":
        super().attach(system)
        self._devices = tuple(system.devices())
        self._devices_on = True
        self.window = WindowAggregator(
            system,
            window_s=self.config.window_s,
            slo_threshold_s=self._slo_threshold,
        )
        self.window.set_window_listener(self.flight.on_window)
        # Consume latency samples recorded before attach (preloads) so
        # the first window only covers ops observed live.
        system.latency.window_snapshot(reset=True)
        self._set_devices(self.head.live)
        return self

    def detach(self) -> None:
        system = self._system
        if system is None:
            return
        if self.window is not None:
            self.window.finalize(self.clock.now)
        stats = system.stats
        meta = self.sampling_meta()
        stats.add("live.ops_seen", float(meta["ops_seen"]))
        stats.add("live.ops_retained", float(meta["ops_retained"]))
        stats.add("live.windows", float(len(self.window.rows)))
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

    def job_cost(self) -> _LiveJobScope:
        return _LiveJobScope(self)

    # ------------------------------------------------------------ emission

    def span(self, track, name, cat, start, end, args=None) -> None:
        if cat == CAT_OP:
            dur = end - start
            head = self.head.advance()
            tail = self.tail.observe(dur)
            if head:
                self.events.append(
                    TraceEvent(track, name, cat, start, dur, args)
                )
            elif tail or self._pending_stalls:
                if tail:
                    self.retained_tail += 1
                else:
                    self.retained_stall += 1
                self.events.append(
                    TraceEvent(track, name, cat, start, dur, args)
                )
            if self._pending_stalls:
                del self._pending_stalls[:]
            self.flight.ring.append(("op", name, start, dur))
            window = self.window
            threshold = self._slo_threshold
            if threshold is not None and dur > threshold:
                window.bad_in_window += 1
            if end >= window.next_edge:
                window.maybe_tick(end)
            if self.head.live != self._devices_on and not self._job_depth:
                self._set_devices(self.head.live)
            return
        if cat == CAT_STALL:
            seconds = end - start
            cause = (args or {}).get("cause", "unknown")
            self._pending_stalls.append(start)
            self.events.append(
                TraceEvent(track, name, cat, start, seconds, args)
            )
            self.flight.on_stall(cause, start, seconds)
            return
        if cat == CAT_QUEUE:
            # A router queue span precedes the store op it queued for,
            # so the *current* head decision is that op's decision.
            self.queue_seen += 1
            args_ = args or {}
            self.flight.ring.append(
                ("queue", name, start, end,
                 args_.get("client"), args_.get("shard"))
            )
            if self.head.live:
                self.queue_kept += 1
                self.events.append(
                    TraceEvent(track, name, cat, start, end - start, args)
                )
            return
        # Anything else (rare, diagnostic) stays full fidelity.
        self.events.append(TraceEvent(track, name, cat, start, end - start, args))

    def op_batch(self, track, kind, starts, durs) -> None:
        n = len(starts)
        if n == 0:
            return
        if len(durs) != n:
            raise ValueError(f"starts/durs length mismatch: {n} vs {len(durs)}")
        head = self.head
        # Head decisions in run-sized chunks: batch/run_len hashes, not
        # one per op.
        head_ranges = []
        i = 0
        while i < n:
            k, live = head.take(n - i)
            if live:
                head_ranges.append((i, i + k))
            i += k
        tail_idx = self.tail.observe_many(durs)
        stall_idx = None
        if self._pending_stalls:
            # Pin each stall to the op whose span contains it (stall
            # cost is charged inside the op that waited).
            stall_idx = []
            for ts in self._pending_stalls:
                j = bisect.bisect_right(starts, ts) - 1
                stall_idx.append(j if j >= 0 else 0)
            del self._pending_stalls[:]
        if head_ranges or tail_idx or stall_idx:
            # Retention priority head > tail > stall, mirroring the
            # scalar path's bookkeeping.
            marks = {}
            for i0, i1 in head_ranges:
                for j in range(i0, i1):
                    marks[j] = 1
            for j in tail_idx or ():
                if j not in marks:
                    marks[j] = 2
            for j in stall_idx or ():
                if j not in marks:
                    marks[j] = 3
            events = self.events
            for j in sorted(marks):
                mark = marks[j]
                if mark == 2:
                    self.retained_tail += 1
                elif mark == 3:
                    self.retained_stall += 1
                events.append(
                    TraceEvent(track, kind, CAT_OP, starts[j], durs[j], None)
                )
        self.flight.ring.append(("ops", kind, starts, durs))
        window = self.window
        threshold = self._slo_threshold
        if threshold is not None:
            bad = sum(1 for dur in durs if dur > threshold)
            if bad:
                window.bad_in_window += bad
        end = starts[-1] + durs[-1]
        if end >= window.next_edge:
            window.maybe_tick(end)
        if head.live != self._devices_on and not self._job_depth:
            self._set_devices(head.live)

    def instant(self, track, name, cat, args=None, ts=None) -> None:
        when = self.clock.now if ts is None else ts
        self.events.append(TraceEvent(track, name, cat, when, None, args))
        if cat == CAT_STALL:
            args_ = args or {}
            self._pending_stalls.append(when)
            self.flight.on_stall(
                args_.get("cause", "unknown"),
                when,
                args_.get("seconds", 0.0),
            )
        elif cat == CAT_QUEUE and name == "drop":
            args_ = args or {}
            self.flight.on_drop(
                args_.get("cause", "unknown"), args_.get("client", ""), when
            )

    def transfer(self, device_name, op, nbytes, sequential, seconds) -> None:
        # Only reachable while the device hooks are enabled: inside a
        # head-sampled run, or under a background-job cost scope.
        args = {"bytes": nbytes, "seq": sequential, "seconds": seconds}
        if self._job_depth:
            args["job"] = True
        now = self.clock.now
        self.events.append(
            TraceEvent(f"dev:{device_name}", op, CAT_TRANSFER, now, None, args)
        )
        self.flight.ring.append(
            ("transfer", device_name, op, nbytes, sequential, seconds, now)
        )

    def _on_submit(self, job, meta) -> None:
        super()._on_submit(job, meta)
        event = self.events[-1]
        self.flight.ring.append(
            ("job", job.worker.name, job.name, event.cat, job.start, job.end,
             event.args["wait_s"])
        )

    # ------------------------------------------------------------- queries

    def sampling_meta(self) -> dict:
        """Exact sampling bookkeeping, for attribution rescaling."""
        retained = self.head.kept + self.retained_tail + self.retained_stall
        return {
            "seed": self.config.seed,
            "head_rate": self.config.head_rate,
            "head_run": self.config.head_run,
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
        rows = self.window.rows[-16:] if self.window is not None else []
        return {"sampling": self.sampling_meta(), "windows": rows}

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        meta = self.sampling_meta()
        return (
            f"LiveRecorder({meta['ops_retained']}/{meta['ops_seen']} ops "
            f"retained, {len(self.events)} events, {state})"
        )
