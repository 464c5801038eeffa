"""Fixed-size, OR-mergeable bloom filter, built when first queried.

A filter's bits are a pure function of the keys added to it, and the
simulator charges filter construction by entry *count*
(``cpu.bloom_build_time``), never by looking at the bits -- so the bits
matter only to whoever queries them.  Most filters are never queried: a
PMTable flushed during a write burst is merged away (its filter ORed
into the next level's) long before a get arrives, and an SSTable's
filter dies with the table at the next compaction.  ``add``/``add_all``
therefore only *retain* the keys (one reference each; ``added`` is kept
eagerly), merging two unbuilt filters concatenates their key lists, and
the first ``may_contain`` / ``probe`` / ``saturation`` /
``false_positive_rate`` / ``bits`` hashes every retained key into a
fresh bit array exactly once.  From then on the filter is a plain eager
one: adds set bits, merges OR them.  Bits, answers and saturation are
identical to building eagerly (``tests/test_bloom_lazy.py`` drives this
class and the eager filter it replaced with one op stream).
"""

from typing import Iterable, List, Optional, Sequence

from repro.bloom.hashing import probe_positions


class BloomFilter:
    """A bloom filter whose size is fixed at creation so filters merge.

    ``nbits`` and ``k`` must match between filters that are merged; MioDB
    sizes every PMTable's filter identically (bits_per_key x the MemTable
    key budget), so compaction can OR filters without rebuilding them.
    The false-positive rate then degrades as merged tables grow -- the
    effect that caps the useful number of levels at ~8 in Figure 9.

    A built filter keeps one *byte* per bit in a ``bytearray``, so a
    probe is ``bits[pos]`` and an add is ``bits[pos] = 1``: no shift, no
    mask and no integer allocated.  The two packed layouts this replaced
    both lose in Python -- one arbitrary-width int copies itself on every
    ``x | (1 << pos)``, and a list of 64-bit words spends three times the
    bytecode per probe on ``(words[pos >> 6] >> (pos & 63)) & 1`` -- and
    the host memory is only ever spent on filters that something reads
    (the *simulated* size, ``nbytes``, is ``nbits // 8`` regardless).
    Popcount and OR-merge run in C (``bytearray.count``, one big-int OR).

    State: exactly one of ``_bits`` (built) and ``_pending`` (the keys
    added so far, not yet hashed) is not ``None``.  Every query starts
    with a plain ``self._bits`` slot load, so a built filter pays one
    ``is None`` test for the laziness and nothing else.
    """

    __slots__ = ("nbits", "k", "_bits", "_pending", "added", "_ones")

    def __init__(self, nbits: int, k: int) -> None:
        if nbits <= 0:
            raise ValueError(f"nbits must be positive, got {nbits}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.nbits = nbits
        self.k = k
        self._bits: Optional[bytearray] = None
        self._pending: Optional[List[bytes]] = []
        self.added = 0
        # Cached count of set bits; every query probe consults the
        # saturation, so recounting per get dominated the read path.
        # Invalidated on every mutation.
        self._ones = 0

    @classmethod
    def for_capacity(cls, nkeys: int, bits_per_key: int = 16) -> "BloomFilter":
        """Size a filter for ``nkeys`` keys at ``bits_per_key`` (paper: 16)."""
        if nkeys <= 0:
            raise ValueError(f"nkeys must be positive, got {nkeys}")
        nbits = max(64, nkeys * bits_per_key)
        # Optimal k = ln(2) * bits/key, as in LevelDB's filter policy.
        k = max(1, min(30, round(bits_per_key * 0.69)))
        return cls(nbits, k)

    def _set_bits(self, bits: bytearray, keys: Iterable[bytes]) -> int:
        """Hash ``keys`` into ``bits``; returns how many there were."""
        k, nbits = self.k, self.nbits
        count = 0
        for key in keys:
            for pos in probe_positions(key, k, nbits):
                bits[pos] = 1
            count += 1
        return count

    def _build(self) -> bytearray:
        """Hash every retained key into a fresh bit array (first query)."""
        bits = bytearray(self.nbits)
        self._set_bits(bits, self._pending)
        self._pending = None
        self._bits = bits
        return bits

    def add(self, key: bytes) -> None:
        """Insert ``key``."""
        if self._bits is None:
            self._pending.append(key)
        else:
            self._set_bits(self._bits, (key,))
        self._ones = None
        self.added += 1

    def add_all(self, keys: Iterable[bytes]) -> int:
        """Insert every key in ``keys``; returns how many were added.

        ``keys`` is consumed here (it may be a one-shot generator) and
        not kept: the filter holds its own reference to each key.
        """
        if self._bits is None:
            pending = self._pending
            before = len(pending)
            pending.extend(keys)
            count = len(pending) - before
        else:
            count = self._set_bits(self._bits, keys)
        self._ones = None
        self.added += count
        return count

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means possibly present."""
        return self.probe(probe_positions(key, self.k, self.nbits))

    def probe(self, positions: Sequence[int]) -> bool:
        """``may_contain`` for a key whose positions are already known.

        ``positions`` must be ``probe_positions(key, self.k, self.nbits)``;
        a reader walking several same-geometry filters hashes once and
        probes each with the result.
        """
        bits = self._bits
        if bits is None:
            bits = self._build()
        for pos in positions:
            if not bits[pos]:
                return False
        return True

    def merge_from(self, other: "BloomFilter") -> None:
        """Bitwise-OR merge (used when two PMTables are compacted).

        ``other`` is left as it was.  Two unbuilt filters just pool
        their keys; otherwise this side ends up built, taking the other
        side's keys (if it is unbuilt) or bits (if built).
        """
        if other.nbits != self.nbits or other.k != self.k:
            raise ValueError(
                "cannot merge bloom filters with different geometry: "
                f"({self.nbits},{self.k}) vs ({other.nbits},{other.k})"
            )
        theirs = other._bits
        if theirs is None:
            if self._bits is None:
                self._pending.extend(other._pending)
            else:
                self._set_bits(self._bits, other._pending)
        else:
            # Every byte is 0 or 1, so OR-ing the arrays as two big ints
            # ORs them bytewise; written back in place because readers
            # (MioDB's batch lookup) hold on to the array.
            bits = self.bits()
            merged = int.from_bytes(bits, "little") | int.from_bytes(theirs, "little")
            bits[:] = merged.to_bytes(len(bits), "little")
        self._ones = None
        self.added += other.added

    def bits(self) -> bytearray:
        """The filter's bits, one per byte: ``bits()[p]`` is 0 or 1.

        Forces the build.  The array stays this filter's storage for
        good (adds and merges update it in place), so a reader may keep
        it; callers must treat it as read-only.
        """
        bits = self._bits
        if bits is None:
            bits = self._build()
        return bits

    @property
    def saturation(self) -> float:
        """Fraction of bits set (drives the false-positive estimate)."""
        ones = self._ones
        if ones is None:
            ones = self._ones = self.bits().count(1)
        return ones / self.nbits

    def false_positive_rate(self) -> float:
        """Estimated FP rate from current saturation: (bits_set/m)^k."""
        return self.saturation ** self.k

    @property
    def nbytes(self) -> int:
        """Accounted size of the filter in simulated bytes."""
        return self.nbits // 8

    def __repr__(self) -> str:
        state = (
            "unbuilt" if self._bits is None
            else f"fp~{self.false_positive_rate():.4f}"
        )
        return (
            f"BloomFilter(nbits={self.nbits}, k={self.k}, added={self.added}, "
            f"{state})"
        )
