"""MioDB configuration."""

from dataclasses import dataclass
from typing import Optional

from repro.kvstore.options import StoreOptions


@dataclass
class MioOptions(StoreOptions):
    """MioDB's knobs, including the ablation switches DESIGN.md lists.

    Attributes:
        num_levels: elastic-buffer depth (L0..L(n-1)); the repository sits
            below as L(n).  The paper settles on 8 (Figure 9).
        use_blooms: disable to measure the bloom filters' contribution.
        one_piece_flush: ablation -- ``False`` falls back to per-KV
            flushing into a fresh PMTable (NoveLSM-style copy+insert).
        zero_copy: ablation -- ``False`` makes buffer compactions copy
            data (SSTable-style merge cost and write amplification).
        parallel_compaction: ablation -- ``False`` serialises all
            compactions on one background worker.
        max_nvm_buffer_bytes: optional cap on elastic-buffer NVM usage;
            writes block when reached (used in the Figure 14 study).
    """

    num_levels: int = 8
    use_blooms: bool = True
    one_piece_flush: bool = True
    zero_copy: bool = True
    parallel_compaction: bool = True
    max_nvm_buffer_bytes: Optional[int] = None
