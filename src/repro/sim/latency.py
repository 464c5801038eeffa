"""Per-operation latency recording and summarisation.

Reproduces the paper's latency metrics: average, 90th, 99th, and 99.9th
percentile latencies (Tables 2 and 3); ``samples_since`` feeds the
latency-over-time series (Figure 8) its ``(time, latency)`` samples.
:func:`window_slice` and :func:`equal_bins` are the time-axis rules of
every series and report that bins samples on a grid.
"""

import math
from array import array
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class LatencySummary:
    """Summary statistics over a set of latency samples, in seconds."""

    __slots__ = ("count", "mean", "p50", "p90", "p99", "p999", "max")

    def __init__(
        self,
        count: int,
        mean: float,
        p50: float,
        p90: float,
        p99: float,
        p999: float,
        max_: float,
    ) -> None:
        self.count = count
        self.mean = mean
        self.p50 = p50
        self.p90 = p90
        self.p99 = p99
        self.p999 = p999
        self.max = max_

    def as_micros(self) -> Dict[str, float]:
        """The summary converted to microseconds (the paper's unit)."""
        return {
            "avg": self.mean * 1e6,
            "p50": self.p50 * 1e6,
            "p90": self.p90 * 1e6,
            "p99": self.p99 * 1e6,
            "p99.9": self.p999 * 1e6,
            "max": self.max * 1e6,
        }

    def __repr__(self) -> str:
        us = self.as_micros()
        return (
            f"LatencySummary(n={self.count}, avg={us['avg']:.1f}us, "
            f"p90={us['p90']:.1f}us, p99={us['p99']:.1f}us, "
            f"p99.9={us['p99.9']:.1f}us)"
        )


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted samples, ``q`` in [0, 100]."""
    if not sorted_samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


def window_slice(times: Sequence[float], edge: float, width: float) -> Tuple[int, int]:
    """``(left, right)``: ``times[left:right]`` are the sorted ``times``
    in the half-open window ``(edge - width, edge]``, so windows that
    tile the axis count each sample once.  An infinite ``width`` makes
    it cumulative: every time at or before ``edge``."""
    return bisect_right(times, edge - width), bisect_right(times, edge)


def equal_bins(
    times: Sequence[float], t0: float, t1: float, bins: int
) -> Tuple[float, List[int]]:
    """``[t0, t1]`` cut into ``bins`` equal slices: the width, and the
    slice of each of ``times``.  A time at ``t1`` is in the last slice;
    a zero span gets width ``1e-12 / bins`` (every time in slice 0)."""
    width = ((t1 - t0) or 1e-12) / bins
    return width, [min(bins - 1, int((t - t0) / width)) for t in times]


def _summarise(values: List[float]) -> LatencySummary:
    """Summary of ``values``, which this sorts in place."""
    if not values:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    values.sort()
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        p50=percentile(values, 50),
        p90=percentile(values, 90),
        p99=percentile(values, 99),
        p999=percentile(values, 99.9),
        max_=values[-1],
    )


class LatencyRecorder:
    """Collects (timestamp, latency) samples grouped by operation kind.

    Each kind is two parallel ``array('d')`` columns, finish times and
    latencies: a sample is sixteen bytes with no per-sample object, so a
    long run neither holds a tuple and two floats per operation nor
    feeds the garbage collector's allocation count.
    """

    def __init__(self) -> None:
        self._columns: Dict[str, Tuple[array, array]] = {}

    def _kind_columns(self, kind: str) -> Tuple[array, array]:
        columns = self._columns.get(kind)
        if columns is None:
            columns = self._columns[kind] = (array("d"), array("d"))
        return columns

    def record(self, kind: str, at_time: float, latency: float) -> None:
        """Record one operation of ``kind`` finishing at ``at_time``."""
        try:
            times, lats = self._columns[kind]
        except KeyError:
            times, lats = self._kind_columns(kind)
        times.append(at_time)
        lats.append(latency)

    def appenders(self, kind: str):
        """``(append_time, append_latency)`` for a loop recording one kind.

        Calling both, in that order, is :meth:`record` without the
        per-sample dispatch.  Fetching them creates the kind, so a loop
        that may turn out empty must not ask.
        """
        times, lats = self._kind_columns(kind)
        return times.append, lats.append

    def kinds(self) -> List[str]:
        """Operation kinds seen so far."""
        return sorted(self._columns)

    def count(self, kind: Optional[str] = None) -> int:
        """Number of samples for ``kind`` (or across all kinds)."""
        if kind is not None:
            columns = self._columns.get(kind)
            return len(columns[1]) if columns else 0
        return sum(len(lats) for __, lats in self._columns.values())

    def samples_since(self, kind: str, index: int) -> Iterator[Tuple[float, float]]:
        """The ``(at_time, latency)`` samples of ``kind`` from ``index`` on.

        ``index`` is a count previously returned by :meth:`count`; the
        slice is the samples recorded after that point.  This is the
        supported way to window samples (phase measurement) without
        reaching into the recorder's internals.  It is a one-pass
        iterator over copies of the two column slices (recording may go
        on while it is read), so it builds no list of pairs.
        """
        if index < 0:
            raise ValueError(f"sample index must be >= 0, got {index}")
        columns = self._columns.get(kind)
        if not columns:
            return zip()
        times, lats = columns
        return zip(times[index:], lats[index:])

    def since(self, counts: Dict[str, int]) -> "LatencyRecorder":
        """A new recorder holding only the samples past ``counts``.

        ``counts`` maps a kind to a count :meth:`count` returned earlier
        (absent means 0).  Kinds with nothing new are left out, so the
        window's :meth:`kinds` are the kinds that ran inside it.
        """
        window = LatencyRecorder()
        for kind, (times, lats) in self._columns.items():
            skip = counts.get(kind, 0)
            if len(lats) > skip:
                window._columns[kind] = (times[skip:], lats[skip:])
        return window

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Raw latency values for ``kind`` (or across all kinds)."""
        if kind is not None:
            columns = self._columns.get(kind)
            return columns[1].tolist() if columns else []
        values: List[float] = []
        for __, lats in self._columns.values():
            values.extend(lats)
        return values

    def summary(self, kind: Optional[str] = None) -> LatencySummary:
        """Percentile summary for ``kind`` (or pooled across kinds)."""
        return _summarise(self.latencies(kind))

    def merge_from(self, other: "LatencyRecorder") -> None:
        """Absorb all samples from ``other``."""
        for kind, (times, lats) in other._columns.items():
            mine = self._kind_columns(kind)
            mine[0].extend(times)
            mine[1].extend(lats)
