"""Oracles for the build-on-first-query bloom filter and its hash kernel.

``BloomFilter`` only retains keys until something queries it, and
``fnv1a_pair`` steps both FNV lanes in one integer.  Neither may change a
single bit, so the code they replaced is kept here as the spec:
``EagerBloom`` is the filter as it was (hash and set bits on every add,
OR 64-bit words on every merge) over the one-lane hash loop and the
accumulate-and-mod position loop.  One hypothesis op stream drives both
implementations and requires equal answers at every step and equal bits
at the end (the new filter keeps a byte per bit; ``EagerBloom.bits``
unpacks the old one's words for the comparison).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.filter import BloomFilter
from repro.bloom.hashing import fnv1a_pair, probe_positions
from tests.support.probes import built

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15


# ---------------------------------------------------------- the replaced code


def reference_pair(data):
    """The one-lane-per-variable loop ``fnv1a_pair`` used to be."""
    h1 = _FNV_OFFSET ^ (1 * _GOLDEN & _MASK64)
    h2 = _FNV_OFFSET ^ (2 * _GOLDEN & _MASK64)
    for byte in data:
        h1 = ((h1 ^ byte) * _FNV_PRIME) & _MASK64
        h2 = ((h2 ^ byte) * _FNV_PRIME) & _MASK64
    return h1, h2


def reference_positions(key, k, nbits):
    """Kirsch-Mitzenmacher positions by the accumulate-and-mod loop."""
    h1, h2 = reference_pair(key)
    h2 |= 1
    positions = []
    h = h1
    for __ in range(k):
        positions.append((h & _MASK64) % nbits)
        h += h2
    return tuple(positions)


class EagerBloom:
    """The filter before it became lazy: bits are set as keys arrive."""

    def __init__(self, nbits, k):
        self.nbits = nbits
        self.k = k
        self._words = [0] * ((nbits + 63) >> 6)
        self.added = 0
        self._ones = 0

    def add(self, key):
        words = self._words
        for pos in reference_positions(key, self.k, self.nbits):
            words[pos >> 6] |= 1 << (pos & 63)
        self._ones = None
        self.added += 1

    def add_all(self, keys):
        k, nbits = self.k, self.nbits
        words = self._words
        count = 0
        for key in keys:
            for pos in reference_positions(key, k, nbits):
                words[pos >> 6] |= 1 << (pos & 63)
            count += 1
        self._ones = None
        self.added += count
        return count

    def may_contain(self, key):
        words = self._words
        for pos in reference_positions(key, self.k, self.nbits):
            if not (words[pos >> 6] >> (pos & 63)) & 1:
                return False
        return True

    def merge_from(self, other):
        if other.nbits != self.nbits or other.k != self.k:
            raise ValueError("cannot merge bloom filters with different geometry")
        words = self._words
        for i, w in enumerate(other._words):
            if w:
                words[i] |= w
        self._ones = None
        self.added += other.added

    @property
    def saturation(self):
        if self._ones is None:
            self._ones = sum(bin(w).count("1") for w in self._words)
        return self._ones / self.nbits

    def false_positive_rate(self):
        return self.saturation ** self.k

    @property
    def nbytes(self):
        return self.nbits // 8

    def bits(self):
        """The words unpacked to ``BloomFilter.bits()``'s byte-per-bit form."""
        words = self._words
        return bytearray(
            (words[p >> 6] >> (p & 63)) & 1 for p in range(self.nbits)
        )


# -------------------------------------------------------------- hash kernel

VECTORS = [
    (b"", 0x55C5E55DFB685F30, 0xF79C6F967AB6DB0F),
    (b"user000000000042", 0xC09E9872E1497A8D, 0xBA379604AEC62A5E),
    (
        b"tenant-0007/user000000000042/profile.v2!",
        0x1DA5F2C27D9C4C51,
        0xACFD9D5F0A534BDE,
    ),
]


@pytest.mark.parametrize("data,h1,h2", VECTORS)
def test_pair_literal_vectors(data, h1, h2):
    assert fnv1a_pair(data) == (h1, h2)
    assert reference_pair(data) == (h1, h2)


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_pair_equals_two_single_hashes(data):
    expected = reference_pair(data)
    assert fnv1a_pair(data) == expected
    assert fnv1a_pair(bytearray(data)) == expected


def test_pair_lanes_survive_worst_case_bytes():
    # 0xff drives the largest per-byte products; a long run of them is
    # where a carry out of the low lane would first show.
    for data in (b"\xff" * 64, b"\x00" * 64, bytes(range(256)) * 4):
        assert fnv1a_pair(data) == reference_pair(data)


def test_positions_literal_vectors():
    assert probe_positions(b"user000000000042", 11, 60928) == (
        12941, 10988, 9035, 11690, 9737, 7784, 5831, 8486, 6533, 4580, 2627,
    )
    assert probe_positions(b"user000000000042", 7, 64) == (13, 44, 11, 42, 9, 40, 7)


@given(
    st.binary(max_size=40),
    st.integers(1, 30),
    st.sampled_from([1, 64, 1000, 2048, 60928, (1 << 20) + 7]),
)
def test_positions_equal_reference_loop(key, k, nbits):
    assert probe_positions(key, k, nbits) == reference_positions(key, k, nbits)


# ----------------------------------------------- one op stream, both filters

NBITS, K = 500, 4  # not a multiple of 64: the old layout's last word is partial
SLOTS = 3
keys = st.binary(min_size=0, max_size=6)
slot = st.integers(0, SLOTS - 1)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), slot, keys),
        st.tuples(st.just("add_all"), slot, st.lists(keys, max_size=8)),
        st.tuples(st.just("add_all_gen"), slot, st.lists(keys, max_size=8)),
        st.tuples(st.just("merge"), slot, slot),
        st.tuples(st.just("may_contain"), slot, keys),
        st.tuples(st.just("probe"), slot, keys),
        st.tuples(st.just("saturation"), slot, st.none()),
        st.tuples(st.just("fp"), slot, st.none()),
    ),
    max_size=40,
)


def check_pair(lazy, eager):
    """What is observable without forcing a build."""
    assert lazy.added == eager.added
    assert lazy.nbytes == eager.nbytes
    if not built(lazy):
        # The memory bound while unbuilt: one reference per added key.
        assert len(lazy._pending) == lazy.added


@settings(max_examples=400)
@given(ops)
def test_lazy_filter_equals_eager_filter(stream):
    lazies = [BloomFilter(NBITS, K) for __ in range(SLOTS)]
    eagers = [EagerBloom(NBITS, K) for __ in range(SLOTS)]
    for op, i, arg in stream:
        lazy, eager = lazies[i], eagers[i]
        if op == "add":
            lazy.add(arg)
            eager.add(arg)
        elif op == "add_all":
            assert lazy.add_all(arg) == eager.add_all(arg) == len(arg)
        elif op == "add_all_gen":
            assert lazy.add_all(key for key in arg) == eager.add_all(arg)
        elif op == "merge":
            # arg is the source slot; i == arg merges a filter into itself.
            lazy.merge_from(lazies[arg])
            eager.merge_from(eagers[arg])
        elif op == "may_contain":
            assert lazy.may_contain(arg) == eager.may_contain(arg)
        elif op == "probe":
            positions = probe_positions(arg, K, NBITS)
            assert lazy.probe(positions) == eager.may_contain(arg)
        elif op == "saturation":
            assert lazy.saturation == eager.saturation
        else:
            assert lazy.false_positive_rate() == eager.false_positive_rate()
        for pair in zip(lazies, eagers):
            check_pair(*pair)
    for lazy, eager in zip(lazies, eagers):
        assert lazy.bits() == eager.bits()
        assert lazy.saturation == eager.saturation


# ------------------------------------------------------- the merge matrix

A_KEYS = [b"a%d" % i for i in range(20)]
B_KEYS = [b"b%d" % i for i in range(20)]


def filled(cls, key_list, build):
    bloom = cls(NBITS, K)
    bloom.add_all(key_list)
    if build:
        bloom.may_contain(b"force")
    return bloom


@pytest.mark.parametrize("dst_built", [False, True])
@pytest.mark.parametrize("src_built", [False, True])
def test_merge_in_every_built_unbuilt_combination(dst_built, src_built):
    dst = filled(BloomFilter, A_KEYS, dst_built)
    src = filled(BloomFilter, B_KEYS, src_built)
    ref_dst = filled(EagerBloom, A_KEYS, False)
    ref_src = filled(EagerBloom, B_KEYS, False)
    assert (built(dst), built(src)) == (dst_built, src_built)

    dst.merge_from(src)
    ref_dst.merge_from(ref_src)
    # Two unbuilt filters pool their keys; anything else leaves dst built.
    assert built(dst) == (dst_built or src_built)
    assert built(src) == src_built  # the source is left as it was
    assert dst.added == ref_dst.added == 40

    # Extending the source afterwards must not leak into the merged filter.
    src.add(b"late")
    src.add_all([b"later", b"latest"])
    ref_src.add_all([b"late", b"later", b"latest"])
    assert dst.added == 40
    assert dst.bits() == ref_dst.bits()
    assert src.bits() == ref_src.bits()
    assert dst.saturation == ref_dst.saturation


@pytest.mark.parametrize("dst_built", [False, True])
@pytest.mark.parametrize("src_built", [False, True])
def test_geometry_mismatch_raises_before_changing_anything(dst_built, src_built):
    for other_geometry in ((NBITS * 2, K), (NBITS, K + 1)):
        dst = filled(BloomFilter, A_KEYS, dst_built)
        src = BloomFilter(*other_geometry)
        src.add_all(B_KEYS)
        if src_built:
            src.may_contain(b"force")
        with pytest.raises(ValueError, match="different geometry"):
            dst.merge_from(src)
        assert (built(dst), built(src)) == (dst_built, src_built)
        assert (dst.added, src.added) == (20, 20)
        if not dst_built:
            assert dst._pending == A_KEYS
        if not src_built:
            assert src._pending == B_KEYS
        assert dst.bits() == filled(EagerBloom, A_KEYS, False).bits()


# ------------------------------------------------ what does and doesn't build


def test_adds_and_unbuilt_merges_never_hash():
    before = probe_positions.cache_info()
    a, b = BloomFilter(NBITS, K), BloomFilter(NBITS, K)
    a.add(b"never-hashed-1")
    a.add_all([b"never-hashed-2", b"never-hashed-3"])
    b.add_all(iter([b"never-hashed-4"]))
    a.merge_from(b)
    assert not built(a) and not built(b)
    assert a.added == 4 and a.nbytes == NBITS // 8
    assert "unbuilt" in repr(a) and "fp~" not in repr(a)
    assert not built(a)  # repr did not build it
    after = probe_positions.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@pytest.mark.parametrize(
    "query",
    [
        lambda bloom: bloom.may_contain(b"x"),
        lambda bloom: bloom.probe(probe_positions(b"x", K, NBITS)),
        lambda bloom: bloom.saturation,
        lambda bloom: bloom.false_positive_rate(),
        lambda bloom: bloom.bits(),
    ],
    ids=["may_contain", "probe", "saturation", "false_positive_rate", "bits"],
)
def test_every_query_forces_the_build(query):
    bloom = BloomFilter(NBITS, K)
    bloom.add_all(A_KEYS)
    assert not built(bloom)
    query(bloom)
    assert built(bloom)
    assert bloom.bits() == filled(EagerBloom, A_KEYS, False).bits()
    assert "fp~" in repr(bloom)


def test_fresh_filter_is_empty():
    bloom = BloomFilter(NBITS, K)
    assert bloom.saturation == 0.0 and bloom.false_positive_rate() == 0.0
    assert not bloom.may_contain(b"anything")
    assert bloom.bits() == bytearray(NBITS)
