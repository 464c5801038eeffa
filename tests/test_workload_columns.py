"""The column generators against the per-op generators they replaced.

``tests/support/workload_oracle.py`` keeps the per-op db_bench and YCSB
phases (one rng call per draw, one ``key_for`` per key, one store call
per op).  Both drive a store that records every call, and the op stream
is compared exactly, with each ``multi_*`` call expanded into its ops:
op kind, key, value tag and size, scan length.  Op counts are not
multiples of ``COLUMN_CHUNK``, so runs cross columns; a batch is cut
from one call, so it never does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.system import HybridMemorySystem
from repro.sim.rng import XorShiftRng
from repro.workloads import dbbench, ycsb
from repro.workloads.keys import key_for, keys_for
from repro.workloads.runner import COLUMN_CHUNK
from repro.workloads.zipfian import (
    LatestGenerator,
    ScrambledZipfian,
    UniformGenerator,
    ZipfianGenerator,
)
from tests.support import workload_oracle as oracle

BATCH_SIZES = (None, 1, 7, 256)
N = 2 * COLUMN_CHUNK + 357
RECORDS = 600
VALUE = 100


class RecordingStore:
    """Records every store call; reads hit unless ``hit`` is False."""

    def __init__(self, hit: bool = True) -> None:
        self.system = HybridMemorySystem()
        self.calls = []
        self.hit = hit

    def _value(self):
        return b"v" if self.hit else None

    def put(self, key, value):
        self.calls.append(("put", key, value.tag, value.nbytes))
        return 0.0

    def get(self, key):
        self.calls.append(("get", key))
        return self._value(), 0.0

    def delete(self, key):
        self.calls.append(("delete", key))
        return 0.0

    def scan(self, start, count):
        self.calls.append(("scan", start, count))
        return []

    def multi_put(self, items):
        self.calls.append(
            ("multi_put", [(key, value.tag, value.nbytes) for key, value in items])
        )
        return [0.0] * len(items)

    def multi_get(self, keys):
        self.calls.append(("multi_get", list(keys)))
        return [(self._value(), 0.0)] * len(keys)

    def multi_delete(self, keys):
        self.calls.append(("multi_delete", list(keys)))
        return [0.0] * len(keys)


def per_op(calls: list) -> list:
    """The recorded calls with each ``multi_*`` call expanded into its ops."""
    ops = []
    for call in calls:
        kind = call[0]
        if kind == "multi_put":
            ops += [("put",) + item for item in call[1]]
        elif kind == "multi_get":
            ops += [("get", key) for key in call[1]]
        elif kind == "multi_delete":
            ops += [("delete", key) for key in call[1]]
        else:
            ops.append(call)
    return ops


def _same_stream(run, batch):
    """``run(module, store, **batch_size)`` on the per-op oracle and on
    the column generators at ``batch``: the recorded ops must be equal,
    and must not be vacuous."""
    old, new = RecordingStore(), RecordingStore()
    old_result = run(oracle, old)
    new_result = run(None, new, batch_size=batch)
    assert per_op(new.calls) == old.calls
    if batch is None:
        assert new.calls == old.calls
    assert old_result.name == new_result.name
    assert old.calls
    return new.calls


def _cut(count, batch):
    """``count`` ops as ``batch``-sized slices plus a remainder."""
    return [batch] * (count // batch) + ([count % batch] if count % batch else [])


def column_batches(n, batch):
    """The batch sizes of ``n`` same-kind ops drawn in columns: each full
    column is cut on its own, then the last."""
    full, last = divmod(n, COLUMN_CHUNK)
    return _cut(COLUMN_CHUNK, batch) * full + _cut(last, batch)


DBBENCH = {
    "fillrandom": lambda m, s, **b: (m or dbbench).fill_random(s, N, VALUE, seed=5, **b),
    "fillseq": lambda m, s, **b: (m or dbbench).fill_seq(s, N, VALUE, **b),
    "readrandom": lambda m, s, **b: (m or dbbench).read_random(s, N, RECORDS, seed=6, **b),
    "readseq": lambda m, s, **b: (m or dbbench).read_seq(s, N, RECORDS, **b),
    "overwrite": lambda m, s, **b: (m or dbbench).overwrite(s, N, RECORDS, VALUE, seed=7, **b),
    "deleterandom": lambda m, s, **b: (m or dbbench).delete_random(s, N, RECORDS, seed=8, **b),
    "load": lambda m, s, **b: (m or ycsb).load_phase(s, N, VALUE, seed=9, **b),
}


@pytest.mark.parametrize("batch", BATCH_SIZES, ids=lambda b: f"batch-{b}")
@pytest.mark.parametrize("mode", sorted(DBBENCH))
def test_dbbench_and_load_issue_the_per_op_stream(mode, batch):
    calls = _same_stream(DBBENCH[mode], batch)
    if batch is not None:
        assert [len(call[1]) for call in calls] == column_batches(N, batch)


def test_seekrandom_issues_the_per_op_stream():
    calls = _same_stream(
        lambda m, s, **b: (m or dbbench).seek_random(s, N, RECORDS, scan_length=13, seed=4),
        None,
    )
    assert len(calls) == N and {call[2] for call in calls} == {13}


@pytest.mark.parametrize("n", [0, 1, COLUMN_CHUNK, COLUMN_CHUNK + 1])
@pytest.mark.parametrize("batch", BATCH_SIZES, ids=lambda b: f"batch-{b}")
def test_column_edges_issue_the_per_op_stream(n, batch):
    old, new = RecordingStore(), RecordingStore()
    for module, store, b in ((oracle, old, {}), (dbbench, new, {"batch_size": batch})):
        module.fill_random(store, n, VALUE, seed=3, **b)
        module.read_random(store, n, max(n, 1), seed=4, **b)
        module.delete_random(store, n, max(n, 1), seed=5, **b)
    assert per_op(new.calls) == old.calls
    if batch is not None:
        assert [len(call[1]) for call in new.calls] == column_batches(n, batch) * 3


@pytest.mark.parametrize("batch", BATCH_SIZES, ids=lambda b: f"batch-{b}")
@pytest.mark.parametrize("letter", "ABCDEF")
def test_ycsb_issues_the_per_op_stream(letter, batch):
    spec = ycsb.YCSB_WORKLOADS[letter]

    def run(module, store, **b):
        return (module or ycsb).run_workload(
            store, spec, N, RECORDS, VALUE, seed=31, **b
        )

    calls = _same_stream(run, batch)
    kinds = {call[0] for call in calls}
    if letter == "C" and batch is not None:
        # One read run per column, cut as the db_bench phases are.
        assert [len(call[1]) for call in calls] == column_batches(N, batch)
    if letter == "D":
        # The latest chooser reads keys the inserts just wrote.
        inserted = {key_for(RECORDS + i) for i in range(N)}
        assert inserted & {op[1] for op in per_op(calls) if op[0] == "get"}
    if letter == "E":
        assert "scan" in kinds and kinds & {"put", "multi_put"}


@pytest.mark.parametrize("batch", BATCH_SIZES, ids=lambda b: f"batch-{b}")
@pytest.mark.parametrize("letter", "ACF")
def test_a_missed_read_fails_ycsb_and_readrandom(letter, batch):
    store = RecordingStore(hit=False)
    with pytest.raises(AssertionError):
        ycsb.run_workload(
            store, ycsb.YCSB_WORKLOADS[letter], 50, RECORDS, VALUE,
            check_reads=True, batch_size=batch,
        )
    with pytest.raises(AssertionError, match="readrandom missed 50/50"):
        dbbench.read_random(RecordingStore(hit=False), 50, RECORDS, batch_size=batch)


@pytest.mark.parametrize(
    "mix",
    [
        {"read": 1.0}, {"update": 1.0}, {"insert": 1.0}, {"scan": 1.0},
        {"rmw": 1.0}, {"read": 0.25, "update": 0.25, "insert": 0.2, "scan": 0.1, "rmw": 0.2},
        {"read": 1.0 - 1e-12, "rmw": 1e-12},
    ],
    ids=lambda mix: "+".join(sorted(mix)),
)
@pytest.mark.parametrize("distribution", ["zipfian", "latest"])
@pytest.mark.parametrize("batch", [None, 5], ids=lambda b: f"batch-{b}")
def test_any_mix_issues_the_per_op_stream(mix, distribution, batch):
    """Single-kind specs draw no mix column; the stream is the per-op one."""
    spec = ycsb.YcsbSpec("X", distribution=distribution, scan_length=9, **mix)

    def run(module, store, **b):
        return (module or ycsb).run_workload(
            store, spec, COLUMN_CHUNK + 77, RECORDS, VALUE, seed=3, **b
        )

    _same_stream(run, batch)


@pytest.mark.parametrize("thresholds, sole", [
    ((1.0, 1.0, 1.0, 1.0), ycsb.READ),
    ((0.0, 1.0, 1.0, 1.0), ycsb.UPDATE),
    ((0.0, 0.0, 0.0, 1.0), ycsb.SCAN),
    ((0.0, 0.0, 0.0, 0.0), ycsb.RMW),
    ((0.5, 1.0, 1.0, 1.0), None),
    ((1.0 - 2**-53, 1.0, 1.0, 1.0), None),
])
def test_sole_kind_is_the_kind_every_draw_lands_on(thresholds, sole):
    assert ycsb._sole_kind(thresholds) == sole


# ------------------------------------------------------- column draws


bounds = st.one_of(
    st.just(1), st.integers(1, 64), st.integers(2**32 - 2, 2**32 + 2),
    st.integers(1, 2**80),
)
seeds = st.integers(0, 2**64 - 1)
counts = st.integers(0, 300)


@given(seeds, counts, bounds)
def test_belows_are_per_draw_next_belows(seed, n, bound):
    bulk, single = XorShiftRng(seed), XorShiftRng(seed)
    assert bulk.belows(n, bound) == [single.next_below(bound) for __ in range(n)]
    assert bulk._state == single._state


@given(seeds, counts)
def test_floats_are_per_draw_next_floats(seed, n):
    bulk, single = XorShiftRng(seed), XorShiftRng(seed)
    assert bulk.floats(n) == [single.next_float() for __ in range(n)]
    assert bulk._state == single._state


def test_belows_checks_the_bound_only_for_a_draw():
    rng = XorShiftRng(3)
    assert rng.belows(0, 0) == []
    with pytest.raises(ValueError, match="bound must be positive"):
        rng.belows(1, 0)


@given(seeds, st.lists(st.integers(), max_size=200))
def test_shuffle_is_the_per_draw_shuffle(seed, items):
    bulk, single = XorShiftRng(seed), XorShiftRng(seed)
    fast, slow = list(items), list(items)
    bulk.shuffle(fast)
    oracle.shuffle(single, slow)
    assert fast == slow
    assert bulk._state == single._state


@settings(max_examples=60)
@given(seeds, st.integers(1, 3000), counts, st.sampled_from([0.5, 0.99]))
def test_zipfian_takes_are_per_draw_nexts(seed, n, count, theta):
    for cls, ref in (
        (ZipfianGenerator, lambda rng: oracle.ZipfianGenerator(n, rng, theta).next),
        (ScrambledZipfian, lambda rng: oracle.ScrambledZipfian(n, rng).next),
        (UniformGenerator, lambda rng: lambda: rng.next_below(n)),
    ):
        args = (n, XorShiftRng(seed)) + ((theta,) if cls is ZipfianGenerator else ())
        bulk = cls(*args)
        draw = ref(XorShiftRng(seed))
        assert bulk.take(count) == [draw() for __ in range(count)]
        assert bulk.take(1) == [draw()]


@settings(max_examples=60)
@given(
    seeds, st.integers(0, 3000),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), max_size=12),
)
def test_latest_offsets_resolve_to_per_draw_nexts(seed, n, steps):
    """Runs of draws with inserts between them: each run's offsets,
    resolved at the ``max_index`` of the moment, are the per-op draws."""
    bulk = LatestGenerator(n, XorShiftRng(seed))
    single = oracle.LatestGenerator(n, XorShiftRng(seed))
    top = n
    for draws, inserts in steps:
        assert bulk.resolve(bulk.offsets(draws)) == [single.next() for __ in range(draws)]
        for __ in range(inserts):
            bulk.observe_insert(top)
            single.observe_insert(top)
            top += 1
    assert bulk.resolve(bulk.offsets(1)) == [single.next()]


@pytest.mark.parametrize("theta", [0.5, 0.8, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 65536])
def test_memoised_zeta_is_the_direct_sum_bit_for_bit(n, theta):
    direct = oracle.ZipfianGenerator._zeta(n, theta)
    for __ in range(2):  # the second call is served from the memo
        assert ZipfianGenerator._zeta(n, theta).hex() == direct.hex()
    gen = ZipfianGenerator(n, XorShiftRng(1), theta)
    ref = oracle.ZipfianGenerator(n, XorShiftRng(1), theta)
    assert gen._zetan.hex() == ref._zetan.hex() and gen._eta.hex() == ref._eta.hex()


def test_zeta_memo_keeps_int_and_float_sizes_apart():
    ZipfianGenerator._zeta(10, 0.99)
    with pytest.raises(TypeError):
        ZipfianGenerator._zeta(10.0, 0.99)


@given(st.lists(st.integers(0, 10**15), max_size=50))
def test_keys_for_is_key_for_of_each(indices):
    assert keys_for(indices) == [key_for(i) for i in indices]
    assert keys_for(range(len(indices))) == [key_for(i) for i in range(len(indices))]


def test_keys_for_refuses_a_negative_index_as_key_for_does():
    with pytest.raises(ValueError, match="got -3"):
        keys_for([4, -3, -7])
