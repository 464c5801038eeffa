"""Unit tests for the machine wrapper and the cost helpers."""

import pytest

from repro.mem.costs import NS, CpuCostModel
from repro.mem.system import HybridMemorySystem
from repro.obs.events import CAT_TRANSFER
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


def _job_slots(system):
    return [device.job_obs for device in system.devices()]


def test_job_scope_tags_exactly_the_transfers_charged_inside(system):
    recorder = system.attach_tracing()
    system.nvm.write(10)
    with system.job_scope():
        system.nvm.write(20, sequential=False)
        system.dram.read(30)
    system.dram.read(40)
    transfers = [
        (e.track, e.name, e.args["bytes"], e.args.get("job", False))
        for e in recorder.index().of(CAT_TRANSFER)
    ]
    assert transfers == [
        ("dev:nvm", "write", 10, False),
        ("dev:nvm", "write", 20, True),
        ("dev:dram", "read", 30, True),
        ("dev:dram", "read", 40, False),
    ]


def test_nested_and_raising_job_scopes_restore_the_slot(ssd_system):
    system = ssd_system
    recorder = system.attach_tracing()
    with system.job_scope():
        assert _job_slots(system) == [recorder] * 3
        system.detach_tracing()
        with system.job_scope():  # a scope sets what is attached now
            assert _job_slots(system) == [None] * 3
        assert _job_slots(system) == [recorder] * 3
        with pytest.raises(RuntimeError, match="boom"):
            with system.job_scope():
                raise RuntimeError("boom")
        assert _job_slots(system) == [recorder] * 3
    assert _job_slots(system) == [None] * 3


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
    assert system.clock.now == 1.0


def test_device_prices_the_pointer_chase(system):
    # Bit-equal to the per-hop sum the stores always charged.
    compare = CpuCostModel.COMPARE_COST
    assert system.dram.hop_time() == 25 * NS
    assert system.nvm.hop_time() == 120 * NS
    for hops in (1, 2, 10, 37, 12345):
        assert system.dram.search_time(hops) == hops * (25 * NS + compare)
        assert system.nvm.search_time(hops) == hops * (120 * NS + compare)


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
