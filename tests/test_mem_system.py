"""Unit tests for the machine wrapper and the cost helpers."""

import pytest

from repro.mem.costs import CpuCostModel
from repro.mem.system import HybridMemorySystem
from repro.sim.clock import SimClock


def test_default_system_has_no_ssd(system):
    assert system.ssd is None
    assert [d.name for d in system.persistent_devices()] == ["nvm"]


def test_with_ssd(ssd_system):
    assert ssd_system.ssd is not None
    names = [d.name for d in ssd_system.persistent_devices()]
    assert names == ["nvm", "ssd"]


def test_every_device_reads_the_machines_clock(system, ssd_system):
    shared = SimClock()
    for machine in (system, ssd_system, HybridMemorySystem(clock=shared)):
        assert machine.devices()
        assert all(dev.clock is machine.clock for dev in machine.devices())


def test_write_amplification_zero_without_user_writes(system):
    system.nvm.write(1000)
    assert system.write_amplification() == 0.0


def test_write_amplification_ratio(system):
    system.stats.add("user.bytes_written", 100)
    system.nvm.write(250)
    assert system.write_amplification() == pytest.approx(2.5)


def test_write_amplification_includes_ssd(ssd_system):
    ssd_system.stats.add("user.bytes_written", 100)
    ssd_system.nvm.write(100)
    ssd_system.ssd.write(100)
    assert ssd_system.write_amplification() == pytest.approx(2.0)


def test_drain_background_runs_jobs(system):
    fired = []
    system.executor.submit(system.executor.worker("w"), 1.0, lambda: fired.append(1))
    system.drain_background()
    assert fired == [1]
    assert system.now == 1.0


def test_cpu_cost_model_hops():
    cpu = CpuCostModel()
    assert cpu.hop_time("nvm") > cpu.hop_time("dram")
    assert cpu.skiplist_search_time("dram", 10) == pytest.approx(
        10 * (cpu.DRAM_HOP + cpu.COMPARE_COST)
    )


def test_cpu_serialize_faster_than_deserialize_per_byte():
    cpu = CpuCostModel()
    n = 1 << 20
    assert cpu.serialize_time(n) < cpu.deserialize_time(n)


def test_bloom_costs_positive():
    cpu = CpuCostModel()
    assert cpu.bloom_build_time(100) > 0
    assert cpu.bloom_probe_time(3) == pytest.approx(
        cpu.BLOOM_BASE_COST + 3 * cpu.BLOOM_PROBE_COST
    )
    # a short-circuited miss is cheaper than a full k-hash "maybe"
    assert cpu.bloom_probe_time(2) < cpu.bloom_probe_time(11)
