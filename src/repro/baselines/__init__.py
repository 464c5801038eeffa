"""Baseline KV stores the paper compares against, built from scratch.

- :class:`LevelDBStore` -- the classic LevelDB design (DRAM MemTable,
  leveled SSTable compaction, single background thread).
- :class:`NoveLSMStore` -- NVM MemTable extension of LevelDB; flat
  (mutable NVM MemTable, Figure 1(c)) and hierarchical (immutable NVM
  buffer, Figure 1(b)) modes.
- :class:`NoveLSMNoSSTStore` -- a single big persistent skip list
  (the paper's NoveLSM-NoSST configuration in Figure 7).
- :class:`MatrixKVStore` -- matrix container at L0 in NVM with
  fine-grained column compaction (Figure 1(d)).

All of them run on the same simulated machine and the same leveled
SSTable engine (:class:`LeveledLSM`), so differences in stalls, write
amplification, and (de)serialization come only from their designs.
"""

from repro.baselines.leveldb import LevelDBStore
from repro.baselines.lsm import LeveledLSM
from repro.baselines.matrixkv import MatrixKVOptions, MatrixKVStore
from repro.baselines.novelsm import NoveLSMOptions, NoveLSMStore
from repro.baselines.novelsm_nosst import NoveLSMNoSSTStore
from repro.baselines.slmdb import SLMDBStore

__all__ = [
    "LeveledLSM",
    "LevelDBStore",
    "NoveLSMStore",
    "NoveLSMOptions",
    "NoveLSMNoSSTStore",
    "MatrixKVStore",
    "MatrixKVOptions",
    "SLMDBStore",
]
