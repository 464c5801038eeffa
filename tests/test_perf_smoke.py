"""Tier-1 pins for the fingerprint kernels (``repro.bench.perf``).

Marked ``perf_smoke``: every kernel runs at the tiny preset and must
land exactly on its checked-in ``PINNED`` value -- the same operations
always yield the same simulated seconds (or merge work counters).  A
change that moves a fingerprint changes the paper's figures and must
fail here, by kernel name.
"""

import pytest

from repro.bench.perf import KERNELS, PINNED, run_kernel

pytestmark = pytest.mark.perf_smoke


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_is_deterministic_across_fresh_runs(kernel):
    ops, fingerprint = run_kernel(kernel, "tiny")
    assert ops > 0
    assert fingerprint == PINNED["tiny"][kernel]


@pytest.mark.parametrize("scale", ["tiny", "default"])
def test_pin_table_has_no_holes(scale):
    pins = PINNED[scale]
    assert set(pins) == set(KERNELS)
    # Ten values of its own per preset; the six "equal to plain" kernels
    # are pinned to their plain kernel's entry, not to a second number.
    assert len(set(pins.values())) == 10
    for base in ("put", "get"):
        for variant in ("traced", "live", "repl0"):
            assert pins[f"{base}-{variant}"] == pins[base]


def test_unknown_kernel_and_preset_rejected():
    with pytest.raises(ValueError):
        run_kernel("fsync")
    with pytest.raises(ValueError):
        run_kernel("put", ops_scale="huge")


@pytest.mark.parametrize("base", ["put", "get"])
def test_instrumented_kernels_share_the_plain_fingerprint(base):
    """Tracing (full or live) must add zero simulated time."""
    plain = run_kernel(base, "tiny")
    assert run_kernel(f"{base}-traced", "tiny") == plain
    assert run_kernel(f"{base}-live", "tiny") == plain
