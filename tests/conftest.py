"""Shared fixtures: a fresh simulated machine and tiny store options."""

import pytest
from hypothesis import HealthCheck, settings

# Store-level property tests run thousands of simulated operations per
# example; wall-clock deadlines would make them flaky on slow machines.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.core import MioOptions
from repro.kvstore.options import StoreOptions
from repro.mem.system import HybridMemorySystem

KB = 1 << 10


@pytest.fixture
def system():
    """A fresh DRAM+NVM machine."""
    return HybridMemorySystem()


@pytest.fixture
def ssd_system():
    """A fresh DRAM+NVM+SSD machine."""
    return HybridMemorySystem(ssd=True)


@pytest.fixture
def tiny_options():
    """Small tables so flushing/compaction triggers in a few dozen puts."""
    return StoreOptions(memtable_bytes=8 * KB, sstable_bytes=8 * KB)


@pytest.fixture
def tiny_mio_options():
    """MioDB options matched to the tiny baseline options."""
    return MioOptions(memtable_bytes=8 * KB, sstable_bytes=8 * KB, num_levels=4)
