"""The per-op workload generators, as they were before the phases drew
their op streams in columns: the reference ``tests/test_workload_columns.py``
holds the column generators to.

Copied verbatim from ``repro.workloads`` (``zipfian``, ``runner``,
``dbbench``, ``ycsb``) and ``XorShiftRng.shuffle``; only the imports are
gathered here, the shuffle is a function, ``ZipfianGenerator._zeta`` is
the plain sum and ``ScrambledZipfian`` hashes each rank without the
memo.  Every draw is one call on the rng, every key one ``key_for``.
The phases issue one store call per op (their ``batch_size`` paths are
dropped): a batched run is held to this stream with each ``multi_*``
call expanded into its ops.
"""

from typing import Dict, Iterable

from repro.bloom.hashing import fnv1a_64
from repro.kvstore.values import SizedValue
from repro.sim.rng import XorShiftRng
from repro.workloads.keys import key_for
from repro.workloads.runner import Phase, RunResult
from repro.workloads.ycsb import YcsbSpec


def shuffle(rng: XorShiftRng, items: list) -> None:
    """Fisher-Yates shuffle in place."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


class ZipfianGenerator:
    """Zipf-distributed ranks over ``[0, n)`` (most popular = 0)."""

    def __init__(self, n: int, rng: XorShiftRng, theta: float = 0.99) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        self._rng = rng
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # With n <= 2 every draw is rank 0 or 1, so eta is never read
        # (and at n == 2 its denominator is zero).
        self._eta = (
            (1 - (2.0 / n) ** (1 - theta)) / (1 - self._zeta2 / self._zetan)
            if n > 2
            else 0.0
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.next_float()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self._eta * u - self._eta + 1) ** self._alpha))


class ScrambledZipfian:
    """Zipfian ranks hashed over the key space (YCSB's default)."""

    def __init__(self, n: int, rng: XorShiftRng) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, rng)

    def next(self) -> int:
        return fnv1a_64(self._zipf.next().to_bytes(8, "little")) % self.n


class LatestGenerator:
    """Skewed toward the most recent insert (workload D's read side)."""

    def __init__(self, n: int, rng: XorShiftRng) -> None:
        self._zipf = ZipfianGenerator(max(1, n), rng)
        self.max_index = n - 1

    def observe_insert(self, index: int) -> None:
        """Tell the generator a new record ``index`` exists."""
        if index > self.max_index:
            self.max_index = index

    def next(self) -> int:
        offset = self._zipf.next()
        value = self.max_index - offset
        return value if value >= 0 else 0


def issue_puts(store, items: Iterable) -> None:
    """Write every ``(key, value)`` of ``items``, in order."""
    put = store.put
    for key, value in items:
        put(key, value)


def issue_gets(store, keys: Iterable[bytes]) -> int:
    """Read every key of ``keys``, in order; returns how many missed."""
    misses = 0
    get = store.get
    for key in keys:
        if get(key)[0] is None:
            misses += 1
    return misses


def issue_deletes(store, keys: Iterable[bytes]) -> None:
    """Delete every key of ``keys``, in order."""
    delete = store.delete
    for key in keys:
        delete(key)


def fill_random(
    store,
    n: int,
    value_size: int,
    seed: int = 1,
) -> RunResult:
    """Write ``n`` KV pairs in random key order."""
    order = list(range(n))
    shuffle(XorShiftRng(seed), order)
    items = (
        (key_for(index), SizedValue(tag, value_size))
        for tag, index in enumerate(order)
    )
    with Phase("fillrandom", store.system) as phase:
        issue_puts(store, items)
    return phase.result()


def fill_seq(store, n: int, value_size: int) -> RunResult:
    """Write ``n`` KV pairs in ascending key order."""
    items = ((key_for(index), SizedValue(index, value_size)) for index in range(n))
    with Phase("fillseq", store.system) as phase:
        issue_puts(store, items)
    return phase.result()


def read_random(
    store,
    n_reads: int,
    key_space: int,
    seed: int = 2,
) -> RunResult:
    """Read ``n_reads`` uniformly random existing keys."""
    rng = XorShiftRng(seed)
    keys = (key_for(rng.next_below(key_space)) for __ in range(n_reads))
    with Phase("readrandom", store.system) as phase:
        misses = issue_gets(store, keys)
    if misses:
        raise AssertionError(f"readrandom missed {misses}/{n_reads} existing keys")
    return phase.result()


def read_seq(store, n_reads: int, key_space: int) -> RunResult:
    """Read keys in ascending order from the first (db_bench's readseq)."""
    keys = (key_for(i % key_space) for i in range(n_reads))
    with Phase("readseq", store.system) as phase:
        issue_gets(store, keys)
    return phase.result()


def overwrite(
    store, n: int, key_space: int, value_size: int, seed: int = 3,
) -> RunResult:
    """Random overwrites of existing keys (db_bench's overwrite)."""
    rng = XorShiftRng(seed)
    items = (
        (key_for(rng.next_below(key_space)), SizedValue(("ow", tag), value_size))
        for tag in range(n)
    )
    with Phase("overwrite", store.system) as phase:
        issue_puts(store, items)
    return phase.result()


def delete_random(
    store, n: int, key_space: int, seed: int = 4,
) -> RunResult:
    """Random deletions (db_bench's deleterandom)."""
    rng = XorShiftRng(seed)
    keys = (key_for(rng.next_below(key_space)) for __ in range(n))
    with Phase("deleterandom", store.system) as phase:
        issue_deletes(store, keys)
    return phase.result()


def seek_random(
    store, n_seeks: int, key_space: int, scan_length: int = 10, seed: int = 5
) -> RunResult:
    """Random short range scans (db_bench's seekrandom)."""
    rng = XorShiftRng(seed)
    with Phase("seekrandom", store.system) as phase:
        for __ in range(n_seeks):
            store.scan(key_for(rng.next_below(key_space)), scan_length)
    return phase.result()


def load_phase(
    store, n: int, value_size: int, seed: int = 11,
) -> RunResult:
    """YCSB Load: insert ``n`` records in hashed (random-looking) order."""
    order = list(range(n))
    shuffle(XorShiftRng(seed), order)
    items = (
        (key_for(index), SizedValue(("load", tag), value_size))
        for tag, index in enumerate(order)
    )
    with Phase("load", store.system) as phase:
        issue_puts(store, items)
    return phase.result()


def run_workload(
    store,
    spec: YcsbSpec,
    n_ops: int,
    record_count: int,
    value_size: int,
    seed: int = 23,
) -> RunResult:
    """Run ``n_ops`` operations of one YCSB workload against ``store``.

    ``record_count`` is the number of records loaded beforehand; inserts
    extend the key space past it.
    """
    rng = XorShiftRng(seed)
    if spec.distribution == "latest":
        chooser = LatestGenerator(record_count, rng.fork(1))
    else:
        chooser = ScrambledZipfian(record_count, rng.fork(3))
    next_insert = record_count
    thresholds = _mix_thresholds(spec)
    read, write = store.get, store.put

    with Phase(f"ycsb-{spec.name}", store.system) as phase:
        for op_index in range(n_ops):
            draw = rng.next_float()
            if draw < thresholds["read"]:
                read(key_for(chooser.next()))
            elif draw < thresholds["update"]:
                write(
                    key_for(chooser.next()),
                    SizedValue(("upd", op_index), value_size),
                )
            elif draw < thresholds["insert"]:
                write(
                    key_for(next_insert),
                    SizedValue(("ins", op_index), value_size),
                )
                if isinstance(chooser, LatestGenerator):
                    chooser.observe_insert(next_insert)
                next_insert += 1
            elif draw < thresholds["scan"]:
                store.scan(key_for(chooser.next()), spec.scan_length)
            else:  # read-modify-write: the get must precede the put
                key = key_for(chooser.next())
                read(key)
                write(key, SizedValue(("rmw", op_index), value_size))
    return phase.result()


def _mix_thresholds(spec: YcsbSpec) -> Dict[str, float]:
    total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"workload {spec.name} mix sums to {total}, expected 1")
    read_t = spec.read
    update_t = read_t + spec.update
    insert_t = update_t + spec.insert
    scan_t = insert_t + spec.scan
    return {"read": read_t, "update": update_t, "insert": insert_t, "scan": scan_t}
