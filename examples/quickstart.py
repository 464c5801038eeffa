#!/usr/bin/env python3
"""Quickstart: MioDB on a simulated DRAM/NVM machine.

Creates a store, writes and reads a few thousand KV pairs, and shows the
store-level picture: elastic-buffer levels, the data repository, write
amplification, and operation latencies -- all in deterministic simulated
time.

Run:  python examples/quickstart.py
"""

from repro import HybridMemorySystem, MioDB, SizedValue


def main() -> None:
    system = HybridMemorySystem()
    db = MioDB(system)

    # Real byte values work for small data...
    db.put(b"greeting", b"hello, hybrid memory!")
    value, latency = db.get(b"greeting")
    print(f"get(greeting) -> {value!r}  ({latency * 1e6:.2f} us simulated)")

    # ...and SizedValue carries a *nominal* size for realistic workloads
    # without materialising megabytes in the interpreter.
    print("\nloading 5,000 4 KB values...")
    for i in range(5000):
        db.put(b"user%012d" % (i % 2000), SizedValue(i, 4096))

    db.delete(b"user%012d" % 7)
    db.quiesce()  # let background compaction finish

    value, __ = db.get(b"user%012d" % 42)
    print(f"newest version of user42 tag: {value.tag}")
    value, __ = db.get(b"user%012d" % 7)
    print(f"deleted key user7 -> {value}")

    pairs, __ = db.scan(b"user%012d" % 100, 5)
    print("scan from user100:", [key.decode() for key, __v in pairs])

    print("\n-- store state ------------------------------------------")
    print("elastic buffer tables per level:", db.level_table_counts())
    print("data repository keys:           ", db.repository.entry_count)
    print(f"write amplification:             {system.write_amplification():.2f}x")
    print(f"simulated time elapsed:          {system.clock.now * 1e3:.2f} ms")
    print(f"interval write stalls:           {system.stats.get('stall.interval_s'):.6f} s")
    put = system.latency.summary("put").as_micros()
    get = system.latency.summary("get").as_micros()
    print(f"put latency  avg/p99.9:          {put['avg']:.2f} / {put['p99.9']:.2f} us")
    print(f"get latency  avg/p99.9:          {get['avg']:.2f} / {get['p99.9']:.2f} us")


if __name__ == "__main__":
    main()
