"""Deterministic pseudo random number generation.

Everything stochastic in the reproduction (skip-list tower heights, zipfian
draws, key shuffles) goes through :class:`XorShiftRng` so that runs are
bit-for-bit reproducible from a seed, independent of Python's global
``random`` state.
"""

_MASK64 = (1 << 64) - 1
_FLOAT_SCALE = float(1 << 53)


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a well-mixed 64-bit word from ``x`` < 2**64."""
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class XorShiftRng:
    """xorshift64* generator -- tiny, fast, and good enough for workloads."""

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        # A zero state would make xorshift degenerate; remap it.
        self._state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        """Return the next 64-bit unsigned integer."""
        x = self._state
        x ^= (x >> 12) & _MASK64
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27) & _MASK64
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def next_float(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) / _FLOAT_SCALE

    def floats(self, n: int) -> list:
        """``n`` draws of :meth:`next_float`, bit for bit, in one call.

        Leaves the generator where ``n`` calls would.  The ``& _MASK64``
        after each right shift in :meth:`next_u64` is a no-op on a
        64-bit state, so it is dropped here.
        """
        x = self._state
        out = []
        append = out.append
        for __ in range(n):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            append((((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11) / _FLOAT_SCALE)
        self._state = x
        return out

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def belows(self, n: int, bound: int) -> list:
        """``n`` draws of :meth:`next_below`, bit for bit, in one call.

        Leaves the generator where ``n`` calls would; ``bound`` is
        checked once, and only when there is a draw to make (as the
        first call would check it).
        """
        if n > 0 and bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        x = self._state
        out = []
        append = out.append
        for __ in range(n):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            append(((x * 0x2545F4914F6CDD1D) & _MASK64) % bound)
        self._state = x
        return out

    def tower_height(self, branching: int, cap: int) -> int:
        """``h = 1; while h < cap and next_below(branching) == 0: h += 1``,
        bit for bit (same heights, same final state), in one frame.

        ``branching`` must be a power of two.  Then a draw is divisible
        by ``branching`` exactly when the state is (the xorshift*
        multiplier is odd, and the 64-bit mask keeps the low bits), so
        the multiply is skipped.
        """
        low = branching - 1
        if branching < 1 or branching & low:
            raise ValueError(f"branching must be a power of two, got {branching}")
        x = self._state
        height = 1
        while height < cap:
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            if x & low:
                break
            height += 1
        self._state = x
        return height

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle in place: swap ``i`` with
        ``next_below(i + 1)`` for ``i`` from the top down, the draws
        inlined."""
        x = self._state
        for i in range(len(items) - 1, 0, -1):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            j = ((x * 0x2545F4914F6CDD1D) & _MASK64) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self._state = x

    def fork(self, salt: int = 1) -> "XorShiftRng":
        """Derive an independent generator (for sub-streams)."""
        return XorShiftRng(self.next_u64() ^ (salt * 0xBF58476D1CE4E5B9))
