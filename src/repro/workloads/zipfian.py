"""YCSB's request-distribution generators.

:class:`ZipfianGenerator` is the Gray et al. algorithm YCSB uses, with the
paper's default skew (theta = 0.99).  :class:`ScrambledZipfian` hashes the
rank so the popular items are spread over the key space, and
:class:`LatestGenerator` skews toward the most recently inserted record
(YCSB workload D).
"""

from functools import lru_cache

from repro.bloom.hashing import fnv1a_64
from repro.sim.rng import XorShiftRng


@lru_cache(maxsize=8192)
def _scrambled(rank: int) -> int:
    """``fnv1a_64`` of the rank's 8 little-endian bytes.

    A zipfian stream draws the same few ranks over and over and the
    hash is a pure-Python byte loop, so it is remembered: bounded, and
    shared by every generator because it depends on the rank alone.
    """
    return fnv1a_64(rank.to_bytes(8, "little"))


class UniformGenerator:
    """Uniform draws over ``[0, n)``."""

    def __init__(self, n: int, rng: XorShiftRng) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self._rng = rng

    def take(self, count: int) -> list:
        """The next ``count`` draws, one ``next_below(n)`` of the rng each."""
        return self._rng.belows(count, self.n)


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
    @lru_cache(maxsize=64, typed=True)
    def _zeta(n: int, theta: float) -> float:
        """``sum(1 / i**theta for i in 1..n)``: O(n), and every generator
        over the same key space and skew needs the same one, so the
        last few are remembered."""
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def take(self, count: int) -> list:
        """The next ``count`` ranks, one rng float each: ranks 0 and 1
        by their share of ``zeta(n)``, the rest by Gray et al.'s
        closed form."""
        n, zetan, eta, alpha = self.n, self._zetan, self._eta, self._alpha
        rank_one = 1.0 + 0.5 ** self.theta
        return [
            0 if (uz := u * zetan) < 1.0
            else 1 if uz < rank_one
            else int(n * ((eta * u - eta + 1) ** alpha))
            for u in self._rng.floats(count)
        ]


class ScrambledZipfian:
    """Zipfian ranks hashed over the key space (YCSB's default)."""

    def __init__(self, n: int, rng: XorShiftRng) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, rng)

    def take(self, count: int) -> list:
        """The next ``count`` draws: each zipfian rank hashed, mod ``n``."""
        n = self.n
        return [_scrambled(rank) % n for rank in self._zipf.take(count)]


class LatestGenerator:
    """Skewed toward the most recent insert (workload D's read side)."""

    def __init__(self, n: int, rng: XorShiftRng) -> None:
        self._zipf = ZipfianGenerator(max(1, n), rng)
        self.max_index = n - 1

    def observe_insert(self, index: int) -> None:
        """Tell the generator a new record ``index`` exists."""
        if index > self.max_index:
            self.max_index = index

    def offsets(self, count: int) -> list:
        """The zipfian offsets of the next ``count`` draws, in one call.

        A draw is its offset back from ``max_index`` *when the op is
        issued*, and inserts move ``max_index`` between draws, so the
        column holds offsets; :meth:`resolve` turns a run of them into
        indices.  ``resolve(offsets(k))`` with no insert in between is
        ``k`` draws of ``max_index - offset`` (0 when the offset passes
        the top), the per-op draw of YCSB's latest distribution.
        """
        return self._zipf.take(count)

    def resolve(self, offsets: list) -> list:
        """Record indices of ``offsets`` at the current ``max_index``."""
        top = self.max_index
        return [top - offset if offset <= top else 0 for offset in offsets]
