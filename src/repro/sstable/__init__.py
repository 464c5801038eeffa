"""Block-based Sorted String Tables.

SSTables are what the baselines (LevelDB-style engine, NoveLSM, MatrixKV)
keep on persistent media, and what MioDB's DRAM-NVM-SSD mode writes to the
SSD.  Building a table charges CPU serialization plus a sequential device
write; reading charges a random block read plus CPU deserialization --
the two costs the paper identifies as the baselines' bottleneck.
"""

from repro.sstable.table import BLOCK_BYTES, SSTable, build_sstable
from repro.sstable.merge import merge_entry_streams

__all__ = [
    "SSTable",
    "build_sstable",
    "merge_entry_streams",
    "BLOCK_BYTES",
]
