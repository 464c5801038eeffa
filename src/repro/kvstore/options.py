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
        level_fanout: capacity ratio between adjacent levels (paper: 10).
        num_levels: number of on-media levels.
        l0_slowdown_tables: L0 table count that triggers write slowdown.
        slowdown_delay_s: per-write delay while in slowdown (LevelDB: 1ms).
        fsync_policy: WAL durability policy -- ``"sync"`` (every append
            is a device write), ``"batch:N"`` (group commit every N
            records), or ``"interval:T"`` (group commit every T
            simulated seconds).  See ``repro.persist.wal``.
    """

    memtable_bytes: int = 1 * MB
    sstable_bytes: int = 1 * MB
    level_fanout: int = 10
    num_levels: int = 7
    l0_slowdown_tables: int = 8
    slowdown_delay_s: float = 1e-3
    fsync_policy: str = "sync"

    def level_capacity_bytes(self, level: int) -> int:
        """Byte budget of ``level`` in a leveled LSM (L1 = fanout x L0)."""
        if level <= 0:
            return self.l0_slowdown_tables * self.sstable_bytes
        return self.sstable_bytes * (self.level_fanout ** level)
