"""Tests for MioDB's DRAM-NVM-SSD mode (paper Section 5.4)."""

import pytest

from repro.core import MioDB, MioOptions

from repro.kvstore.values import SizedValue

KB = 1 << 10


@pytest.fixture
def ssd_store(ssd_system):
    options = MioOptions(memtable_bytes=4 * KB, num_levels=3)
    return MioDB(ssd_system, options)


def fill(store, n, value_size=256, key_space=None):
    space = key_space or n
    for i in range(n):
        store.put(b"key%06d" % ((i * 7919) % space), SizedValue(i, value_size))


def test_lazy_copy_serializes_to_ssd(ssd_store, ssd_system):
    fill(ssd_store, 1000)
    ssd_store.quiesce()
    assert ssd_system.ssd.bytes_written > 0
    assert ssd_store.repository.data_bytes > 0
    assert ssd_system.stats.get("serialize.time_s") > 0


def test_reads_fall_through_to_ssd(ssd_store, ssd_system):
    fill(ssd_store, 900, key_space=300)
    ssd_store.quiesce()
    for i in range(300):
        value, __ = ssd_store.get(b"key%06d" % i)
        assert value is not None, i


def test_elastic_buffer_absorbs_ssd_slowness(ssd_store, ssd_system):
    fill(ssd_store, 2000)
    # the SSD repository is slow, but writes never stall: the buffer grows
    assert ssd_system.stats.get("stall.interval_s") == pytest.approx(0.0, abs=1e-6)


def test_nvm_reclaimed_after_flush_to_ssd(ssd_store, ssd_system):
    fill(ssd_store, 1500)
    peak = ssd_system.nvm.peak_bytes_in_use
    ssd_store.quiesce()
    assert ssd_system.nvm.bytes_in_use < peak


def test_ssd_mode_scan(ssd_store):
    for i in range(300):
        ssd_store.put(b"key%06d" % i, SizedValue(i, 256))
    ssd_store.quiesce()
    pairs, __ = ssd_store.scan(b"key000050", 10)
    assert [k for k, __ in pairs] == [b"key%06d" % i for i in range(50, 60)]


def test_deletes_respected_through_ssd_levels(ssd_store):
    for i in range(200):
        ssd_store.put(b"key%06d" % i, SizedValue(i, 256))
    ssd_store.quiesce()
    ssd_store.delete(b"key000007")
    ssd_store.quiesce()
    value, __ = ssd_store.get(b"key000007")
    assert value is None
