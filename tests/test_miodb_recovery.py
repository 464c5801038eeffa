"""Crash recovery replays only the WAL tail (paper Section 4.7).

Recovery correctness -- every crash point, torn tails, fsync policies,
repeated crashes -- is the model checker's ``crash_and_recover`` rule
(``tests/test_model_checker.py``).  This file keeps the cost claim.
"""

from repro.core import MioDB, MioOptions, recover
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem

KB = 1 << 10


def test_recovery_replays_only_wal_tail():
    system = HybridMemorySystem()
    store = MioDB(system, MioOptions(memtable_bytes=4 * KB, num_levels=3))
    for i in range(2000):
        store.put(b"key%06d" % (i * 7919 % 500), SizedValue(i, 512))
    recover(store)
    replayed = system.stats.get("recover.replayed")
    assert 0 < replayed < 2000  # most data came from PMTables, not the WAL
