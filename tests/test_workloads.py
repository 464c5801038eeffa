"""Unit tests for workload generators and runners."""

import pytest

from repro.bench import make_store
from repro.bench.config import BenchScale
from repro.sim.rng import XorShiftRng
from repro.workloads import (
    YCSB_WORKLOADS,
    LatestGenerator,
    Phase,
    ScrambledZipfian,
    UniformGenerator,
    ZipfianGenerator,
    fill_random,
    fill_seq,
    key_for,
    load_phase,
    read_random,
    read_seq,
    run_workload,
)
from repro.workloads.ycsb import YcsbSpec
from tests.support import workload_oracle as oracle

KB = 1 << 10
SMALL = BenchScale(memtable_bytes=8 * KB, dataset_bytes=256 * KB, value_size=512,
                   nvm_buffer_bytes=64 * KB)


# ------------------------------------------------------------------- keys


def test_key_for_is_16_bytes_and_ordered():
    assert len(key_for(0)) == 16
    assert key_for(1) < key_for(2) < key_for(10)


def test_key_for_rejects_negative():
    with pytest.raises(ValueError):
        key_for(-1)


# ---------------------------------------------------------------- zipfian


def test_zipfian_range_and_skew():
    rng = XorShiftRng(1)
    gen = ZipfianGenerator(1000, rng)
    draws = gen.take(5000)
    assert all(0 <= d < 1000 for d in draws)
    top = sum(1 for d in draws if d < 10)
    assert top > len(draws) * 0.3  # heavy head


def test_zipfian_validation():
    rng = XorShiftRng(1)
    with pytest.raises(ValueError):
        ZipfianGenerator(0, rng)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, rng, theta=1.0)


@pytest.mark.parametrize("theta", [0.6, 0.99])
@pytest.mark.parametrize("n", [2, 1000])
def test_zipfian_take_equals_repeated_next(theta, n):
    """A key space of 2 lands every draw on the rank-0 / rank-1 branches."""
    batched = ZipfianGenerator(n, XorShiftRng(5), theta)
    single = oracle.ZipfianGenerator(n, XorShiftRng(5), theta)
    draws = batched.take(3000)
    assert draws == [single.next() for __ in range(3000)]
    assert batched.take(0) == []
    assert batched.take(1) == [single.next()]
    if n == 2:
        assert set(draws) == {0, 1}


def test_uniform_take_equals_repeated_next():
    batched = UniformGenerator(37, XorShiftRng(8))
    single = XorShiftRng(8)
    assert batched.take(2000) == [single.next_below(37) for __ in range(2000)]
    assert batched.take(1) == [single.next_below(37)]


def test_scrambled_zipfian_spreads_hot_keys():
    rng = XorShiftRng(1)
    gen = ScrambledZipfian(1000, rng)
    draws = gen.take(5000)
    assert all(0 <= d < 1000 for d in draws)
    # hot items are hashed away from rank 0
    low_hits = sum(1 for d in draws if d < 10)
    assert low_hits < len(draws) * 0.5


def test_request_generators_draw_the_unmemoised_sequence():
    """``ScrambledZipfian`` remembers the rank hash; the draws of all
    three request generators stay the plain expressions over the rng."""
    from repro.bloom.hashing import fnv1a_64
    from repro.workloads.zipfian import _scrambled

    def scrambled(n, seed):
        ranks = oracle.ZipfianGenerator(n, XorShiftRng(seed))
        return lambda: fnv1a_64(ranks.next().to_bytes(8, "little")) % n

    def latest(n, seed):
        ranks = oracle.ZipfianGenerator(n, XorShiftRng(seed))
        return lambda: max(0, n - 1 - ranks.next())

    def uniform(n, seed):
        rng = XorShiftRng(seed)
        return lambda: rng.next_below(n)

    cases = [
        (ScrambledZipfian, scrambled), (LatestGenerator, latest),
        (UniformGenerator, uniform),
    ]
    # Twice over, and over two key spaces: the second pass and the second
    # n are served from a memo the first filled (it is keyed by rank).
    for n in (1000, 37, 1000):
        for seed in (1, 9):
            for cls, plain in cases:
                gen, expected = cls(n, XorShiftRng(seed)), plain(n, seed)
                assert _draws(gen, 3000) == [
                    expected() for __ in range(3000)
                ], (cls.__name__, n, seed)
    literal = ScrambledZipfian(1000, XorShiftRng(1))
    assert literal.take(5) == [814, 783, 568, 769, 405]
    info = _scrambled.cache_info()
    assert info.hits > 10000 and 0 < info.currsize <= info.maxsize <= 32768


def _draws(gen, count):
    """The next ``count`` record indices of a request generator."""
    if isinstance(gen, LatestGenerator):
        return gen.resolve(gen.offsets(count))
    return gen.take(count)


def test_latest_generator_tracks_inserts():
    rng = XorShiftRng(1)
    gen = LatestGenerator(100, rng)
    gen.observe_insert(500)
    draws = _draws(gen, 2000)
    assert all(0 <= d <= 500 for d in draws)
    recent = sum(1 for d in draws if d > 400)
    assert recent > len(draws) * 0.5


def test_uniform_generator():
    gen = UniformGenerator(50, XorShiftRng(2))
    assert all(0 <= draw < 50 for draw in gen.take(500))
    with pytest.raises(ValueError):
        UniformGenerator(0, XorShiftRng(1))


# ------------------------------------------------------------------ phases


def test_phase_measures_window_only(system, tiny_mio_options):
    from repro.core import MioDB
    from repro.kvstore.values import SizedValue

    store = MioDB(system, tiny_mio_options)
    store.put(b"warmup", SizedValue(0, 128))
    with Phase("test", system) as phase:
        for i in range(10):
            store.put(b"key%03d" % i, SizedValue(i, 128))
    result = phase.result()
    assert result.ops == 10
    assert result.duration_s > 0
    assert result.kiops > 0
    assert result.per_kind["put"].count == 10


def test_phase_result_before_exit_raises(system):
    phase = Phase("x", system)
    with pytest.raises(RuntimeError):
        phase.result()


# ---------------------------------------------------------------- db_bench


def test_fill_random_writes_all_keys():
    store, system = make_store("miodb", SMALL)
    result = fill_random(store, 200, 512)
    assert result.ops == 200
    store.quiesce()
    value, __ = store.get(key_for(123))
    assert value is not None


def test_fill_seq_ordered():
    store, system = make_store("miodb", SMALL)
    result = fill_seq(store, 100, 512)
    assert result.ops == 100
    pairs, __ = store.scan(key_for(0), 5)
    assert [k for k, __v in pairs] == [key_for(i) for i in range(5)]


def test_read_random_asserts_hits():
    store, system = make_store("miodb", SMALL)
    fill_random(store, 100, 512)
    result = read_random(store, 50, 100)
    assert result.ops == 50
    with pytest.raises(AssertionError):
        read_random(store, 10, 100000)  # mostly-missing key space


def test_read_seq():
    store, system = make_store("miodb", SMALL)
    fill_seq(store, 100, 512)
    result = read_seq(store, 50, 100)
    assert result.ops == 50


# -------------------------------------------------------------------- YCSB


def test_ycsb_specs_mix_sums_to_one():
    for spec in YCSB_WORKLOADS.values():
        total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw
        assert total == pytest.approx(1.0)


def test_ycsb_bad_mix_rejected():
    store, system = make_store("miodb", SMALL)
    bad = YcsbSpec("bad", read=0.5)
    with pytest.raises(ValueError):
        run_workload(store, bad, 10, 100, 512)


def test_ycsb_load_and_a():
    store, system = make_store("miodb", SMALL)
    load = load_phase(store, 300, 512)
    assert load.ops == 300
    result = run_workload(
        store, YCSB_WORKLOADS["A"], 200, 300, 512, check_reads=True
    )
    assert result.ops == 200
    assert "get" in result.per_kind and "put" in result.per_kind


def test_ycsb_d_inserts_extend_keyspace():
    store, system = make_store("miodb", SMALL)
    load_phase(store, 200, 512)
    run_workload(store, YCSB_WORKLOADS["D"], 300, 200, 512, check_reads=True)
    # some inserts beyond the loaded range must exist now
    value, __ = store.get(key_for(200))
    assert value is not None


def test_ycsb_e_scans():
    store, system = make_store("miodb", SMALL)
    load_phase(store, 200, 512)
    result = run_workload(store, YCSB_WORKLOADS["E"], 100, 200, 512)
    assert result.per_kind["scan"].count > 50


def test_ycsb_f_rmw_counts_two_ops():
    store, system = make_store("miodb", SMALL)
    load_phase(store, 100, 512)
    result = run_workload(store, YCSB_WORKLOADS["F"], 100, 100, 512)
    # RMW issues a get and a put, so recorded ops exceed the request count
    assert result.ops > 100


def test_same_seed_same_simulated_time():
    t = []
    for __ in range(2):
        store, system = make_store("miodb", SMALL)
        load_phase(store, 200, 512, seed=7)
        run_workload(store, YCSB_WORKLOADS["A"], 100, 200, 512, seed=9)
        t.append(system.clock.now)
    assert t[0] == t[1]
