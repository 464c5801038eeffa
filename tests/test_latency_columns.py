"""The columnar ``LatencyRecorder`` against the tuple list it replaced.

The recorder keeps two ``array('d')`` columns per kind instead of a list
of ``(time, latency)`` tuples, and ``Phase`` takes its window by slicing
them instead of re-recording every sample.  No return value may change,
so the old recorder is kept here verbatim as the spec and one hypothesis
op stream drives both, comparing every answer.  ``Phase._measure`` as it
was is kept the same way.
"""

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.core import MioDB, MioOptions
from repro.kvstore.values import SizedValue
from repro.sim.latency import LatencyRecorder, LatencySummary, percentile
from repro.workloads.dbbench import fill_random, read_random
from repro.workloads.runner import Phase

KB = 1 << 10


# ---------------------------------------------------------- the replaced code


class TupleListRecorder:
    """``LatencyRecorder`` as it was: one ``(time, latency)`` tuple per sample."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[Tuple[float, float]]] = {}

    def record(self, kind: str, at_time: float, latency: float) -> None:
        """Record one operation of ``kind`` finishing at ``at_time``."""
        self._samples.setdefault(kind, []).append((at_time, latency))

    def kinds(self) -> List[str]:
        """Operation kinds seen so far."""
        return sorted(self._samples)

    def count(self, kind: Optional[str] = None) -> int:
        """Number of samples for ``kind`` (or across all kinds)."""
        if kind is not None:
            return len(self._samples.get(kind, ()))
        return sum(len(v) for v in self._samples.values())

    def samples_since(self, kind: str, index: int) -> List[Tuple[float, float]]:
        """The ``(at_time, latency)`` samples of ``kind`` from ``index`` on.

        ``index`` is a count previously returned by :meth:`count`; the
        slice is the samples recorded after that point.  This is the
        supported way to window samples (phase measurement) without
        reaching into the recorder's internals.
        """
        if index < 0:
            raise ValueError(f"sample index must be >= 0, got {index}")
        rows = self._samples.get(kind)
        if not rows:
            return []
        return list(rows[index:])

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Raw latency values for ``kind`` (or across all kinds)."""
        if kind is not None:
            return [lat for __, lat in self._samples.get(kind, ())]
        return [lat for rows in self._samples.values() for __, lat in rows]

    def summary(self, kind: Optional[str] = None) -> LatencySummary:
        """Percentile summary for ``kind`` (or pooled across kinds)."""
        values = sorted(self.latencies(kind))
        if not values:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean = sum(values) / len(values)
        return LatencySummary(
            count=len(values),
            mean=mean,
            p50=percentile(values, 50),
            p90=percentile(values, 90),
            p99=percentile(values, 99),
            p999=percentile(values, 99.9),
            max_=values[-1],
        )

    def merge_from(self, other: "TupleListRecorder") -> None:
        """Absorb all samples from ``other``."""
        for kind, rows in other._samples.items():
            self._samples.setdefault(kind, []).extend(rows)


def old_measure(recorder, start_counts):
    """``Phase._measure``'s window as it was: every sample re-recorded."""
    window = TupleListRecorder()
    ops = 0
    for kind in recorder.kinds():
        skip = start_counts.get(kind, 0)
        rows = list(recorder.samples_since(kind, skip))
        ops += len(rows)
        for at, lat in rows:
            window.record(kind, at, lat)
    per_kind = {k: window.summary(k) for k in window.kinds()}
    return ops, per_kind, window.summary()


# ------------------------------------------------------------------ helpers


def fields(summary):
    """A ``LatencySummary`` as a comparable tuple."""
    return tuple(getattr(summary, name) for name in LatencySummary.__slots__)


def as_tuple_list(recorder):
    """The same samples in an old-style recorder."""
    old = TupleListRecorder()
    for kind in recorder.kinds():
        for at, lat in recorder.samples_since(kind, 0):
            old.record(kind, at, lat)
    return old


KINDS = st.sampled_from(["get", "put", "scan"])
MAYBE_KIND = st.one_of(st.none(), KINDS)
# Few distinct values, so ties in time and in latency both occur.
FLOATS = st.one_of(
    st.sampled_from([0.0, 1e-6, 2.5e-6, 1.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
SLOT = st.integers(min_value=0, max_value=1)

OPS = st.one_of(
    st.tuples(st.just("record"), SLOT, KINDS, FLOATS, FLOATS),
    st.tuples(st.just("appenders"), SLOT, KINDS, st.lists(
        st.tuples(FLOATS, FLOATS), min_size=1, max_size=4)),
    st.tuples(st.just("count"), SLOT, MAYBE_KIND),
    st.tuples(st.just("kinds"), SLOT),
    st.tuples(st.just("samples_since"), SLOT, KINDS, st.integers(0, 12)),
    st.tuples(st.just("latencies"), SLOT, MAYBE_KIND),
    st.tuples(st.just("summary"), SLOT, MAYBE_KIND),
    st.tuples(st.just("merge_from"), SLOT),
)


def apply(op, new, old):
    """Run one op on both pairs of recorders; returns both answers."""
    name, slot = op[0], op[1]
    a, b = new[slot], old[slot]
    if name == "record":
        return a.record(*op[2:]), b.record(*op[2:])
    if name == "appenders":
        stamp, sample = a.appenders(op[2])
        for at, lat in op[3]:
            stamp(at)
            sample(lat)
            b.record(op[2], at, lat)
        return None, None
    if name == "kinds":
        return a.kinds(), b.kinds()
    if name in ("count", "latencies", "summary"):
        return getattr(a, name)(op[2]), getattr(b, name)(op[2])
    if name == "samples_since":
        return list(a.samples_since(op[2], op[3])), b.samples_since(op[2], op[3])
    assert name == "merge_from"
    return a.merge_from(new[1 - slot]), b.merge_from(old[1 - slot])


# -------------------------------------------------------------------- tests


@given(st.lists(OPS, max_size=40))
def test_every_answer_equals_the_tuple_list_recorder(ops):
    new = [LatencyRecorder(), LatencyRecorder()]
    old = [TupleListRecorder(), TupleListRecorder()]
    for op in ops:
        got, want = apply(op, new, old)
        if isinstance(want, LatencySummary):
            got, want = fields(got), fields(want)
        assert got == want, op
    for a, b in zip(new, old):
        assert a.kinds() == b.kinds()
        assert a.count() == b.count()
        assert a.latencies() == b.latencies()
        for kind in b.kinds():
            assert list(a.samples_since(kind, 0)) == b.samples_since(kind, 0)


def test_errors_are_the_same():
    for recorder in (LatencyRecorder(), TupleListRecorder()):
        recorder.record("get", 1.0, 2.0)
        with pytest.raises(ValueError):
            recorder.samples_since("get", -1)
        assert list(recorder.samples_since("absent", 3)) == []


def test_since_is_the_window_phase_used_to_build():
    recorder = LatencyRecorder()
    for i in range(10):
        recorder.record("put", float(i), i * 1e-6)
    for i in range(4):
        recorder.record("get", 10.0 + i, i * 2e-6)
    window = recorder.since({"put": 7, "get": 4, "scan": 0})
    assert window.kinds() == ["put"]  # nothing new: no kind
    window_rows = list(window.samples_since("put", 0))
    assert window_rows == list(recorder.samples_since("put", 7))
    window.record("put", 99.0, 1.0)  # a copy, not a view
    assert recorder.count("put") == 10
    assert recorder.since({}).latencies() == recorder.latencies()


def small_store(system):
    return MioDB(system, MioOptions(memtable_bytes=8 * KB, num_levels=4))


def test_phase_over_two_kinds_matches_the_old_measure(system):
    store = small_store(system)
    fill_random(store, 300, 256)  # samples from before the phase
    with Phase("mixed", system) as phase:
        start_counts = dict(phase._start_counts)
        store.multi_put([(b"key%04d" % i, SizedValue(i, 256)) for i in range(120)])
        store.multi_get([b"key%04d" % i for i in range(0, 150, 2)])
        store.put(b"key-last", SizedValue(0, 64))
        store.get(b"key-last")
    result = phase.result()
    ops, per_kind, pooled = old_measure(as_tuple_list(system.latency), start_counts)
    assert start_counts == {"put": 300}
    assert result.ops == ops == 121 + 76
    assert list(result.per_kind) == list(per_kind) == ["get", "put"]
    for kind in per_kind:
        assert fields(result.per_kind[kind]) == fields(per_kind[kind])
    assert fields(result.latency) == fields(pooled)


def test_empty_batches_create_no_kind(system):
    store = small_store(system)
    with Phase("nothing", system) as phase:
        assert store.multi_get([]) == []
        assert store.multi_put([]) == []
        assert store.multi_delete(iter(())) == []
    assert system.latency.kinds() == []
    assert phase.result().per_kind == {}
    assert phase.result().ops == 0
    assert system.stats.snapshot() == {}
    read = read_random(store, 0, 10, batch_size=4)
    assert read.per_kind == {} and system.latency.kinds() == []
    store.multi_delete([b"gone"])
    assert system.latency.kinds() == ["delete"]
