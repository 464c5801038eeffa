"""Device profiles calibrated to the numbers the paper relies on.

The absolute figures come from the Optane characterisation literature the
paper cites (Yang et al., FAST'20) and the paper's own statements:

- NVM random-write bandwidth is about 7x lower than DRAM (Section 2.1).
- NVM latency is up to 100x lower and bandwidth up to 10x higher than SSD
  (Section 1).

Only the *ratios* matter for reproducing the paper's shapes; the absolute
values set the time axis.
"""

from repro.mem.device import DeviceProfile

GB = 1 << 30
US = 1e-6
NS = 1e-9

DRAM_PROFILE = DeviceProfile(
    name="dram",
    read_latency=80 * NS,
    write_latency=80 * NS,
    seq_read_bw=15.0 * GB,
    seq_write_bw=12.0 * GB,
    rand_read_bw=10.0 * GB,
    rand_write_bw=8.4 * GB,
    hop_latency=25 * NS,
    persistent=False,
)

# Intel Optane DCPMM (per-thread figures): ~3x the read latency of DRAM,
# sequential write ~2.3 GB/s, and random write ~7x below DRAM.
OPTANE_NVM_PROFILE = DeviceProfile(
    name="nvm",
    read_latency=300 * NS,
    write_latency=100 * NS,
    seq_read_bw=6.6 * GB,
    seq_write_bw=2.3 * GB,
    rand_read_bw=2.4 * GB,
    rand_write_bw=1.2 * GB,
    hop_latency=120 * NS,
    persistent=True,
)

# NVMe SSD pinned at 10x lower bandwidth / 100x higher latency than the
# Optane profile, matching the relation the paper quotes.  No code path
# chases pointers on it (or on the replication link): both take NVM's hop.
NVME_SSD_PROFILE = DeviceProfile(
    name="ssd",
    read_latency=30 * US,
    write_latency=30 * US,
    seq_read_bw=0.66 * GB,
    seq_write_bw=0.23 * GB,
    rand_read_bw=0.24 * GB,
    rand_write_bw=0.12 * GB,
    hop_latency=120 * NS,
    persistent=True,
)


# Replica-to-replica WAL shipping link: a datacenter NIC-ish profile
# (~10us one-way latency, ~3 GB/s sustained).  Not a storage device --
# each follower's link is a standalone Device charging ship time, so the
# link never appears in any store's write-amplification denominator.
REPL_LINK_PROFILE = DeviceProfile(
    name="repl-link",
    read_latency=10 * US,
    write_latency=10 * US,
    seq_read_bw=3.0 * GB,
    seq_write_bw=3.0 * GB,
    rand_read_bw=3.0 * GB,
    rand_write_bw=3.0 * GB,
    hop_latency=120 * NS,
    persistent=False,
)
