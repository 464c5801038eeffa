"""Deterministic trace sampling: splitmix64 head decisions + tail outliers.

The live telemetry plane cannot afford one :class:`TraceEvent` per
operation, so it keeps two kinds of ops:

- **Head samples** -- a pseudo-random, workload-independent subset chosen
  by hashing the op *sequence number* with splitmix64.  The decision is a
  pure function of ``(seed, seq)``: the same seed and the same op stream
  always retain the same set, so live-trace hashes stay pinned for a
  given configuration.  Decisions are made per *run* of ``run_len``
  consecutive ops (the hash is over ``seq // run_len``), which amortises
  the hash to a fraction of an op and keeps a retained op's neighbours --
  and its device transfers -- in the trace with it.
- **Tail samples** -- every op whose latency exceeds a rolling percentile
  of recent latencies, and every op that touched a stall.  Tail retention
  is decided at op completion from the op stream alone, so it is equally
  deterministic.

Retention is exact-bookkeeping sampling, not lossy aggregation: the
sampler counts every op it sees and every op it keeps, per decision
class, so downstream attribution can rescale retained counts back to
population estimates (``scale() == seen / retained``).
"""

from typing import List

from repro.sim.latency import percentile as nearest_rank
from repro.sim.rng import mix64

_MASK64 = (1 << 64) - 1

#: Golden-ratio increment used by the splitmix64 stream (Steele et al.).
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

#: Head sampling: the fraction of runs drawn, and ops per run.
HEAD_RATE = 1.0 / 64.0
HEAD_RUN = 16
_HEAD_THRESHOLD = int(HEAD_RATE * float(1 << 64))

#: Tail sampling: the rolling percentile, the latencies it is taken
#: over, and how many ops pass between threshold refreshes.
TAIL_PERCENTILE = 99.0
TAIL_WINDOW = 512
TAIL_REFRESH = 256


def splitmix64(x: int) -> int:
    """One splitmix64 step: a well-mixed 64-bit word from ``x``."""
    return mix64((x + _SPLITMIX_GAMMA) & _MASK64)


class HeadSampler:
    """Streaming head sampling with O(1) amortised cost.

    Op ``seq`` is kept iff the run of :data:`HEAD_RUN` consecutive ops
    containing it was drawn at :data:`HEAD_RATE`.  The recorder's hot
    path calls :meth:`advance` once per op; the hash is only recomputed
    at run boundaries.  ``live`` mirrors the decision for the *current*
    sequence number.
    """

    __slots__ = ("seed", "live", "_left", "_seq", "seen", "kept")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._seq = 0
        self._left = HEAD_RUN
        self.live = self._draw(0)
        self.seen = 0
        self.kept = 0

    def _draw(self, run_index: int) -> bool:
        return (
            splitmix64(self.seed ^ (run_index * _SPLITMIX_GAMMA))
            < _HEAD_THRESHOLD
        )

    def advance(self) -> bool:
        """Consume one op; returns the decision for the op just consumed."""
        live = self.live
        self.seen += 1
        if live:
            self.kept += 1
        self._seq += 1
        left = self._left - 1
        if left == 0:
            self._left = HEAD_RUN
            self.live = self._draw(self._seq // HEAD_RUN)
        else:
            self._left = left
        return live


class TailSampler:
    """Rolling-percentile outlier detector over recent op latencies.

    Keeps the last ``TAIL_WINDOW`` latencies in a circular buffer and
    refreshes the retention threshold (the ``TAIL_PERCENTILE``-th of the
    buffer) every ``TAIL_REFRESH`` observed ops.  Until the first refresh
    the threshold is ``inf`` -- nothing tail-samples on latency while the
    distribution is still unknown (stall retention is handled by the
    recorder and does not wait).  All state is a pure function of the observed latency
    stream, so tail decisions are as deterministic as head decisions.
    """

    __slots__ = ("threshold", "_buf", "_idx", "_filled", "_since", "kept")

    def __init__(self) -> None:
        self.threshold = float("inf")
        self._buf: List[float] = [0.0] * TAIL_WINDOW
        self._idx = 0
        self._filled = 0
        self._since = 0
        self.kept = 0

    def observe(self, latency: float) -> bool:
        """Record one latency; True iff it exceeds the rolling threshold."""
        outlier = latency > self.threshold
        if outlier:
            self.kept += 1
        buf = self._buf
        idx = self._idx
        buf[idx] = latency
        idx += 1
        if idx == TAIL_WINDOW:
            idx = 0
        self._idx = idx
        if self._filled < TAIL_WINDOW:
            self._filled += 1
        self._since += 1
        if self._since >= TAIL_REFRESH:
            self._refresh_threshold()
        return outlier

    def _refresh_threshold(self) -> None:
        self._since = 0
        live = sorted(self._buf[: self._filled])
        self.threshold = nearest_rank(live, TAIL_PERCENTILE)

    def as_dict(self) -> dict:
        return {
            "percentile": TAIL_PERCENTILE,
            "window": TAIL_WINDOW,
            "refresh": TAIL_REFRESH,
            "threshold": self.threshold if self.threshold != float("inf")
            else None,
            "kept": self.kept,
        }
