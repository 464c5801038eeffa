"""Flight recorder: a bounded ring of recent events plus dump triggers.

Full tracing answers "what happened?" after the fact; the flight
recorder answers it *at incident time* without paying full-trace cost
steady-state.  The live recorder feeds every event it sees -- sampled or
not -- into a bounded ring of the same events the trace keeps.  When a
trigger fires (a stall longer than a threshold, a burst of
admission-queue drops, or an SLO burn-rate alert), the ring is frozen
into a deterministic JSON document, one :func:`ring_row` per event: the
complete recent window, ready for post-incident forensics.

Everything here runs on the simulated clock, so for a seeded scenario
the dump -- trigger time, ring contents, window rows -- is byte-identical
across runs; a pinned-hash test holds it to that.
"""

from collections import deque
from typing import List, Optional

from repro.obs.analyze.slo import BurnRateRule, SloObjective
from repro.obs.events import (
    CAT_OP,
    CAT_QUEUE,
    CAT_STALL,
    CAT_TRANSFER,
    TraceEvent,
    stall_seconds,
)

#: Schema version stamped into every dump document.
FLIGHT_SCHEMA = "repro-flight-v1"

#: Trigger names (closed vocabulary, mirrored in dump docs and metrics).
TRIGGER_STALL = "stall-alert"
TRIGGER_DROPS = "drop-burst"
TRIGGER_SLO = "slo-burn"
TRIGGERS = (TRIGGER_STALL, TRIGGER_DROPS, TRIGGER_SLO)

#: Ring entries kept, and dump documents kept per recorder.
FLIGHT_CAPACITY = 4096
MAX_DUMPS = 4

#: A drop burst is this many drops within this many simulated seconds.
DROP_BURST_N = 8
DROP_BURST_S = 1e-3

#: Short lookback of 5 simulated ms, long of 50 ms, firing at 2x budget
#: burn -- scaled to trace-length runs rather than wall-clock SRE windows.
BURN_RULE = BurnRateRule(short_s=5e-3, long_s=50e-3, factor=2.0)

#: Categories with a dump row, besides the background jobs on worker tracks.
_RINGED = frozenset({CAT_OP, CAT_QUEUE, CAT_STALL, CAT_TRANSFER})


def ring_row(event: TraceEvent) -> list:
    """One ring event as its dump row, tagged by the first element:

    - ``["op", kind, start, dur]`` -- one foreground op
    - ``["stall", cause, ts, seconds]`` -- a stall span or instant
    - ``["job", worker, name, cat, start, end, wait_s]`` -- background job
    - ``["transfer", device, op, nbytes, sequential, seconds, ts]``
    - ``["queue", kind, arrival, end, client, shard]`` -- served request
    - ``["drop", cause, client, ts]`` -- shed request
    """
    cat = event.cat
    args = event.args or {}
    if cat == CAT_OP:
        return ["op", event.name, event.ts, event.dur]
    if cat == CAT_STALL:
        cause = args.get("cause", "unknown")
        return ["stall", cause, event.ts, stall_seconds(event)]
    if cat == CAT_TRANSFER:
        device = event.track[len("dev:"):]
        return ["transfer", device, event.name, args["bytes"], args["seq"],
                args["seconds"], event.ts]
    if cat == CAT_QUEUE and event.dur is None:
        cause = args.get("cause", "unknown")
        return ["drop", cause, args.get("client", ""), event.ts]
    if cat == CAT_QUEUE:
        return ["queue", event.name, event.ts, event.end, args.get("client"),
                args.get("shard")]
    worker = event.track[len("worker:"):]
    return ["job", worker, event.name, cat, event.ts, event.end, args["wait_s"]]


class FlightRecorder:
    """Ring buffer of recent events with trigger-driven dumps.

    :meth:`record` is the one way into the ring.  Dump documents are
    capped at ``MAX_DUMPS`` (oldest kept: the first dumps after an
    incident usually hold the interesting window); further triggers only
    count.
    """

    def __init__(
        self,
        stall_alert_s: Optional[float] = None,
        slo: Optional[SloObjective] = None,
    ) -> None:
        self.ring: deque = deque(maxlen=FLIGHT_CAPACITY)
        self.stall_alert_s = stall_alert_s
        self.slo = slo
        self.dumps: List[dict] = []
        #: Trigger counts, including triggers past the ``MAX_DUMPS`` cap.
        self.trigger_counts = {name: 0 for name in TRIGGERS}
        #: Optional zero-arg callable returning extra context (sampling
        #: bookkeeping, recent window rows) embedded in each dump.
        self.context_provider = None
        self._drop_times: deque = deque()
        # Per-window (t_s, ops, bad) history for burn-rate evaluation,
        # no older than the rule's long lookback; rows are appended by
        # the window aggregator via :meth:`on_window`.
        self._slo_windows: deque = deque()

    # -------------------------------------------------------------- feeds

    def record(self, event: TraceEvent) -> None:
        """Ring ``event`` if it has a :func:`ring_row` (ops, served and
        shed requests, stalls, transfers, background jobs).  A stall
        fires the stall trigger at its threshold; a drop fires on a burst
        within the window."""
        cat = event.cat
        shed = cat == CAT_QUEUE and event.dur is None
        if shed and event.name != "drop":
            return
        if cat not in _RINGED and not event.track.startswith("worker:"):
            return
        self.ring.append(event)
        if cat == CAT_STALL:
            alert = self.stall_alert_s
            seconds = stall_seconds(event)
            if alert is not None and seconds >= alert:
                cause = (event.args or {}).get("cause", "unknown")
                self._trigger(
                    TRIGGER_STALL, event.ts,
                    {"cause": cause, "seconds": seconds, "threshold_s": alert},
                )
        elif shed:
            self._on_drop(event)

    def _on_drop(self, event: TraceEvent) -> None:
        ts = event.ts
        times = self._drop_times
        times.append(ts)
        horizon = ts - DROP_BURST_S
        while times and times[0] < horizon:
            times.popleft()
        if len(times) >= DROP_BURST_N:
            self._trigger(
                TRIGGER_DROPS, ts,
                {
                    "cause": (event.args or {}).get("cause", "unknown"),
                    "drops_in_window": len(times),
                    "burst_n": DROP_BURST_N,
                    "burst_window_s": DROP_BURST_S,
                },
            )
            times.clear()

    def on_window(self, t_s: float, ops: int, bad: int) -> None:
        """One closed aggregation window; evaluates the burn-rate rule.

        ``bad`` is the number of ops in the window whose latency exceeded
        the SLO threshold.  A lookback's burn rate is
        :meth:`SloObjective.burn` of its summed rows, and
        :meth:`BurnRateRule.fires` decides.  The window just closed holds
        at least one op and lies in both lookbacks, so neither is empty.
        """
        if self.slo is None:
            return
        rule = BURN_RULE
        rows = self._slo_windows
        rows.append((t_s, ops, bad))
        horizon = t_s - rule.long_s
        while rows[0][0] < horizon:
            rows.popleft()
        short = self._burn(t_s - rule.short_s)
        long_ = self._burn(horizon)
        if rule.fires(short, long_):
            self._trigger(
                TRIGGER_SLO, t_s,
                {
                    "objective": self.slo.name,
                    "threshold_s": self.slo.threshold_s,
                    "target": self.slo.target,
                    "burn_short": short,
                    "burn_long": long_,
                    "factor": rule.factor,
                },
            )
            rows.clear()

    def _burn(self, since: float) -> float:
        # The lookback [since, t] is closed on the left, unlike the
        # analyzers' (edge - width, edge]: rows are stamped on WINDOW_S
        # grid edges, so a lookback starts exactly on a row in real runs.
        ops = bad = 0
        for t_s, n, b in self._slo_windows:
            if t_s >= since:
                ops += n
                bad += b
        return self.slo.burn(bad, ops)

    # ------------------------------------------------------------ dumping

    def _trigger(self, name: str, at_s: float, detail: dict) -> None:
        self.trigger_counts[name] += 1
        if len(self.dumps) >= MAX_DUMPS:
            return
        self.dumps.append(self._dump_doc(name, at_s, detail))

    def _dump_doc(self, trigger: str, at_s: float, detail: dict) -> dict:
        doc = {
            "schema": FLIGHT_SCHEMA,
            "trigger": trigger,
            "at_s": at_s,
            "detail": detail,
            "ring": [ring_row(event) for event in self.ring],
        }
        if self.context_provider is not None:
            doc["context"] = self.context_provider()
        return doc

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self.ring)}/{FLIGHT_CAPACITY} events, "
            f"{len(self.dumps)} dumps)"
        )
