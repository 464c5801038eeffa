"""Simulated hybrid memory substrate (DRAM / NVM / SSD).

The paper evaluates on real Intel Optane DC Persistent Memory.  This
reproduction substitutes deterministic device models: each device has a
latency and sequential/random bandwidths, and counts every byte read and
written (the write counters are the numerator of the paper's write
amplification metric).

:class:`HybridMemorySystem` bundles the devices with the simulation kernel
and the CPU cost model into the "machine" every KV store runs on.
"""

from repro.mem.costs import CpuCostModel
from repro.mem.device import Device, DeviceProfile
from repro.mem.profiles import (
    DRAM_PROFILE,
    NVME_SSD_PROFILE,
    OPTANE_NVM_PROFILE,
)
from repro.mem.system import HybridMemorySystem

__all__ = [
    "Device",
    "DeviceProfile",
    "CpuCostModel",
    "HybridMemorySystem",
    "DRAM_PROFILE",
    "OPTANE_NVM_PROFILE",
    "NVME_SSD_PROFILE",
]
