"""Unit tests for device models and traffic/space accounting."""

from contextlib import nullcontext

import pytest

from repro.mem.costs import CpuCostModel
from repro.mem.device import Device, DeviceProfile
from repro.mem.profiles import DRAM_PROFILE, NVME_SSD_PROFILE, OPTANE_NVM_PROFILE
from repro.mem.system import HybridMemorySystem
from repro.obs.events import CAT_TRANSFER
from repro.sim.clock import SimClock


@pytest.fixture
def nvm():
    return Device(OPTANE_NVM_PROFILE, SimClock())


def test_read_time_is_latency_plus_bandwidth(nvm):
    profile = nvm.profile
    t = nvm.read(1 << 20, sequential=True)
    assert t == pytest.approx(profile.read_latency + (1 << 20) / profile.seq_read_bw)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 1000, 12345])
@pytest.mark.parametrize("running", [0.0, 1e-9, 3.3e-7, 0.1, 12.345678])
def test_write_words_is_the_two_step_charge_bit_for_bit(count, running):
    old = Device(OPTANE_NVM_PROFILE, SimClock())
    new = Device(OPTANE_NVM_PROFILE, SimClock())
    # The pointer-write charge as MioDB's swizzle and merge summed it.
    expected = running
    expected += old.write(8 * count, sequential=False)
    expected += (count - 1) * old.profile.write_latency
    assert new.write_words(count, running).hex() == expected.hex()
    assert (new.bytes_written, new.write_ops) == (8 * count, 1)


def test_a_device_keeps_the_profile_it_was_built_with(nvm):
    with pytest.raises(AttributeError):
        nvm.profile = DRAM_PROFILE
    assert nvm.profile is OPTANE_NVM_PROFILE
    assert nvm.search_time(1) == nvm.hop_time() + CpuCostModel.COMPARE_COST


def test_write_words_of_nothing_charges_nothing(nvm):
    assert nvm.write_words(0, 0.25) == 0.25
    assert (nvm.bytes_written, nvm.write_ops) == (0, 0)


def test_seq_read_rate_prices_a_read(nvm):
    latency, bandwidth = nvm.seq_read_rate()
    assert nvm.read(4096) == latency + 4096 / bandwidth


def test_random_write_slower_than_sequential(nvm):
    seq = nvm.write(1 << 20, sequential=True)
    rand = nvm.write(1 << 20, sequential=False)
    assert rand > seq


def test_traffic_counters(nvm):
    nvm.read(100)
    nvm.read(50)
    nvm.write(200)
    assert nvm.bytes_read == 150
    assert nvm.bytes_written == 200
    assert nvm.read_ops == 2
    assert nvm.write_ops == 1


def test_negative_sizes_rejected(nvm):
    with pytest.raises(ValueError):
        nvm.read(-1)
    with pytest.raises(ValueError):
        nvm.write(-1)


def test_add_reads_commits_totals(nvm):
    nvm.read(10)
    nvm.add_reads(300, 4)
    nvm.add_reads(0, 0)
    assert (nvm.bytes_read, nvm.read_ops) == (310, 5)
    for nbytes, ops in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError):
            nvm.add_reads(nbytes, ops)
    assert (nvm.bytes_read, nvm.read_ops) == (310, 5)
    assert nvm.bytes_written == nvm.write_ops == 0


def test_allocate_release_and_peak(nvm):
    nvm.allocate(100)
    nvm.allocate(200)
    assert nvm.bytes_in_use == 300
    assert nvm.peak_bytes_in_use == 300
    nvm.release(150)
    assert nvm.bytes_in_use == 150
    assert nvm.peak_bytes_in_use == 300


def test_release_more_than_allocated_rejected(nvm):
    nvm.allocate(10)
    nvm.clock.advance(1.0)
    before = (nvm.bytes_in_use, nvm.peak_bytes_in_use, nvm.average_usage())
    with pytest.raises(ValueError):
        nvm.release(11)
    after = (nvm.bytes_in_use, nvm.peak_bytes_in_use, nvm.average_usage())
    assert after == before == (10, 10, 10.0)
    # The integral goes on from the unchanged usage.
    nvm.clock.advance(1.0)
    assert nvm.average_usage() == 10.0


def test_average_usage_time_weighted(nvm):
    nvm.allocate(100)
    nvm.clock.advance(1.0)
    nvm.allocate(100)  # 100 bytes for [0,1)
    nvm.clock.advance(1.0)
    assert nvm.average_usage() == pytest.approx(150.0)  # then 200 for [1,2)
    nvm.release(200)
    nvm.clock.advance(2.0)
    assert nvm.average_usage() == pytest.approx(75.0)  # and none for [2,4)


def test_paper_ratio_nvm_random_write_much_slower_than_dram():
    ratio = DRAM_PROFILE.rand_write_bw / OPTANE_NVM_PROFILE.rand_write_bw
    assert 5 <= ratio <= 9  # the paper says ~7x


def test_paper_ratio_ssd_vs_nvm():
    bw_ratio = OPTANE_NVM_PROFILE.seq_write_bw / NVME_SSD_PROFILE.seq_write_bw
    lat_ratio = NVME_SSD_PROFILE.read_latency / OPTANE_NVM_PROFILE.read_latency
    assert bw_ratio == pytest.approx(10.0, rel=0.01)
    assert lat_ratio == pytest.approx(100.0, rel=0.01)


# ------------------------------------- fused charges vs their composition

#: (name, the fused call, the calls it replaces, in their order).
FUSED = [
    ("log_write", lambda dev, nbytes, hops: dev.log_write(nbytes),
     lambda dev, nbytes, hops: (dev.allocate(nbytes), dev.write(nbytes, sequential=True))[1]),
    ("insert_write", lambda dev, nbytes, hops: dev.insert_write(hops, nbytes),
     lambda dev, nbytes, hops: dev.search_time(max(hops, 1)) + dev.write(nbytes, sequential=False)),
]
CHARGES = [(0, 0), (1, 1), (17, 0), (1103, 3), (4177, 17), (64, 2), (1 << 20, 9)]


def _charge_trail(charge, pick, trace):
    """Charges on a fresh machine; returns what a reader could observe."""
    machine = HybridMemorySystem()
    recorder = machine.attach_tracing() if trace else None
    device = pick(machine)
    seconds = []
    for step, (nbytes, hops) in enumerate(CHARGES):
        machine.clock.advance(step * 3.7e-7)
        with machine.job_scope() if trace == "job" else nullcontext():
            seconds.append(charge(device, nbytes, hops).hex())
    machine.clock.advance(1e-6)
    transfers = [] if recorder is None else [
        (e.track, e.name, e.ts, sorted(e.args.items()))
        for e in recorder.index().of(CAT_TRANSFER)
    ]
    return (
        seconds, device.bytes_written, device.write_ops, device.bytes_in_use,
        device.peak_bytes_in_use, device.average_usage().hex(), transfers,
    )


@pytest.mark.parametrize("trace", [None, "foreground", "job"])
@pytest.mark.parametrize("pick", [lambda m: m.dram, lambda m: m.nvm], ids=["dram", "nvm"])
@pytest.mark.parametrize("name, fused, composed", FUSED, ids=[f[0] for f in FUSED])
def test_a_fused_charge_is_the_composition_it_replaces(name, fused, composed, pick, trace):
    observed = _charge_trail(fused, pick, trace)
    assert observed == _charge_trail(composed, pick, trace)
    if trace:
        assert len(observed[-1]) == len(CHARGES)
        assert {dict(args).get("job", False) for *__, args in observed[-1]} == {trace == "job"}


@pytest.mark.parametrize("name, fused, composed", FUSED, ids=[f[0] for f in FUSED])
def test_a_fused_charge_refuses_a_negative_size(name, fused, composed, nvm):
    with pytest.raises(ValueError):
        fused(nvm, -1, 1)
    assert (nvm.bytes_written, nvm.write_ops, nvm.bytes_in_use) == (0, 0, 0)
