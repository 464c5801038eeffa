"""The simulated machine: devices + clock + executor + cost model + stats."""

from contextlib import contextmanager
from typing import Optional

from repro.mem.costs import CpuCostModel
from repro.mem.device import Device
from repro.mem.profiles import DRAM_PROFILE, NVME_SSD_PROFILE, OPTANE_NVM_PROFILE
from repro.obs.live.recorder import LiveRecorder
from repro.obs.recorder import TraceRecorder
from repro.sim.clock import SimClock
from repro.sim.executor import Executor
from repro.sim.latency import LatencyRecorder
from repro.sim.stats import StatsRegistry


class HybridMemorySystem:
    """A DRAM/NVM(/SSD) machine that KV stores are instantiated on.

    One system corresponds to one experiment run: it owns the simulated
    clock, the background executor, the devices with their traffic
    counters, a latency recorder, and a stats registry.
    """

    def __init__(self, ssd: bool = False, clock: Optional[SimClock] = None) -> None:
        # ``ssd`` adds the NVMe tier (the paper's Section 5.4 hierarchy).
        # ``clock`` lets several systems share one timeline -- the
        # repro.cluster layer builds N shard machines on one SimClock so
        # their foreground ops and background jobs are mutually ordered.
        self.clock = clock if clock is not None else SimClock()
        self.executor = Executor(self.clock)
        self.dram = Device(DRAM_PROFILE, self.clock)
        self.nvm = Device(OPTANE_NVM_PROFILE, self.clock)
        self.ssd = Device(NVME_SSD_PROFILE, self.clock) if ssd else None
        self.cpu = CpuCostModel()
        self.stats = StatsRegistry()
        self.latency = LatencyRecorder()
        #: The attached TraceRecorder, or None (tracing off -- the default).
        self.obs = None

    @property
    def bottom_tier(self) -> Device:
        """Where a store keeps its persistent levels: the SSD when the
        machine has one (Section 5.4's hierarchy), else NVM."""
        return self.nvm if self.ssd is None else self.ssd

    def devices(self):
        """Every device on this machine, DRAM first."""
        devices = [self.dram, self.nvm]
        if self.ssd is not None:
            devices.append(self.ssd)
        return devices

    def persistent_devices(self):
        """Devices whose writes count toward write amplification."""
        return [dev for dev in self.devices() if dev.profile.persistent]

    def attach_tracing(self):
        """Attach a fresh :class:`~repro.obs.recorder.TraceRecorder`.

        Returns the recorder; every store on this system starts emitting
        op/stall/flush/compact/transfer events until
        :meth:`detach_tracing` (or ``recorder.detach()``) is called.
        """
        return TraceRecorder().attach(self)

    def detach_tracing(self) -> None:
        """Detach the current recorder, if any (idempotent)."""
        if self.obs is not None:
            self.obs.detach()

    def attach_live(self, **options):
        """Attach a :class:`~repro.obs.live.recorder.LiveRecorder`.

        The always-on telemetry posture: sampled op tracing (head +
        tail), a flight-recorder ring with incident-triggered dumps,
        and windowed aggregation -- at a fraction of full tracing's
        overhead.  ``options`` are the recorder's ``seed``,
        ``slo_threshold_s`` and ``stall_alert_s`` (e.g.
        ``attach_live(seed=3, slo_threshold_s=5e-6)``).  Returns the
        attached recorder; detach via :meth:`detach_tracing` as usual.
        """
        return LiveRecorder(**options).attach(self)

    @contextmanager
    def job_scope(self):
        """Tag the device traffic charged inside as background-job cost.

        Stores wrap the inline cost computation of each flush/compaction
        they schedule.  Every device's ``job_obs`` slot is the attached
        recorder (or None) inside, so its transfers are tagged
        ``job=True``, whatever the devices' ``obs`` hooks; the previous
        slots come back on exit, also when scopes nest or the body raises.
        """
        devices = self.devices()
        saved = [device.job_obs for device in devices]
        for device in devices:
            device.job_obs = self.obs
        try:
            yield
        finally:
            for device, job_obs in zip(devices, saved):
                device.job_obs = job_obs

    def persistent_bytes_written(self) -> int:
        """Total bytes written to persistent media so far."""
        return sum(dev.bytes_written for dev in self.persistent_devices())

    def write_amplification(self) -> float:
        """Persistent traffic divided by logical user writes (Figure 11)."""
        user = self.stats.get("user.bytes_written")
        if user <= 0:
            return 0.0
        return self.persistent_bytes_written() / user

    def drain_background(self) -> float:
        """Let all pending flushes/compactions finish; returns final time."""
        return self.executor.drain()
