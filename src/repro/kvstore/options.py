"""Store configuration shared across engines.

Defaults are the paper's settings scaled down 64x (Section 5 uses 64 MB
MemTables/SSTables and 80 GB datasets; the reproduction defaults to 1 MB
tables so datasets of ~128 MB simulated bytes keep the same
dataset-to-MemTable ratio at tractable node counts).
"""

from dataclasses import dataclass

KB = 1 << 10
MB = 1 << 20


@dataclass
class StoreOptions:
    """Knobs common to every LSM-style engine in the reproduction.

    Attributes:
        memtable_bytes: DRAM MemTable capacity before it turns immutable.
        sstable_bytes: target size of one SSTable (baselines).
        num_levels: number of on-media levels.
        fsync_policy: WAL durability policy -- ``"sync"`` (every append
            is a device write), ``"batch:N"`` (group commit every N
            records), or ``"interval:T"`` (group commit every T
            simulated seconds).  See ``repro.persist.wal``.
    """

    memtable_bytes: int = 1 * MB
    sstable_bytes: int = 1 * MB
    num_levels: int = 7
    fsync_policy: str = "sync"
