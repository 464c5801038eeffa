#!/usr/bin/env python3
"""MioDB in a DRAM-NVM-SSD hierarchy (paper Section 5.4).

The elastic NVM buffer absorbs a write burst while the slow SSD
repository drains it in the background: writes never stall, NVM usage
swells and then shrinks back as lazy flushes to the SSD complete.

Run:  python examples/ssd_tiering.py
"""

from repro import HybridMemorySystem, MioDB, MioOptions, SizedValue

KB = 1 << 10
MB = 1 << 20


def main() -> None:
    system = HybridMemorySystem(ssd=True)
    db = MioDB(
        system,
        MioOptions(memtable_bytes=256 * KB, num_levels=4),
    )

    print("burst-writing 24 MB of 4 KB values against an SSD-backed store...")
    checkpoints = []
    n = 6144
    for i in range(n):
        db.put(b"user%012d" % i, SizedValue(i, 4096))
        if i % (n // 8) == 0:
            checkpoints.append(
                (system.clock.now * 1e3, system.nvm.bytes_in_use / MB,
                 (system.ssd.bytes_in_use if system.ssd else 0) / MB)
            )

    print("\n  time_ms   nvm_in_use_MB   ssd_in_use_MB")
    for t, nvm_mb, ssd_mb in checkpoints:
        print(f"  {t:8.2f}   {nvm_mb:13.2f}   {ssd_mb:13.2f}")

    peak_nvm = system.nvm.peak_bytes_in_use / MB
    print(f"\nwrite stalls during the burst: "
          f"{system.stats.get('stall.interval_s'):.6f} s  (elastic buffer!)")
    print(f"peak NVM usage: {peak_nvm:.1f} MB")

    db.quiesce()
    print(f"after quiescing: NVM {system.nvm.bytes_in_use / MB:.1f} MB, "
          f"SSD {system.ssd.bytes_in_use / MB:.1f} MB")
    print(f"SSD repository now holds {db.repository.entry_count} entries "
          f"across levels {[len(l) for l in db.repository.lsm.levels]}")

    value, latency = db.get(b"user%012d" % 123)
    print(f"\nread through NVM buffer + SSD levels: tag={value.tag} "
          f"({latency * 1e6:.1f} us)")
    print(f"write amplification (NVM+SSD traffic / user bytes): "
          f"{system.write_amplification():.2f}x")


if __name__ == "__main__":
    main()
