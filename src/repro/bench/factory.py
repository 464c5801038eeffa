"""Construction of comparable store instances for benchmarks.

Every store gets its own fresh :class:`HybridMemorySystem` so device
counters, stalls, and latencies are attributable to that store alone --
the paper likewise deploys each KV store on the same server separately.
"""

from typing import Optional, Tuple

from repro.baselines import (
    LevelDBStore,
    MatrixKVOptions,
    MatrixKVStore,
    NoveLSMNoSSTStore,
    NoveLSMOptions,
    NoveLSMStore,
    SLMDBStore,
)
from repro.bench.config import BenchScale
from repro.core import MioDB, MioOptions
from repro.kvstore.options import StoreOptions
from repro.mem.system import HybridMemorySystem

STORE_NAMES = (
    "miodb",
    "matrixkv",
    "novelsm",
    "novelsm-hier",
    "novelsm-nosst",
    "leveldb",
    "slmdb",
)


def make_store(
    name: str,
    scale: Optional[BenchScale] = None,
    system: Optional[HybridMemorySystem] = None,
    ssd: bool = False,
    **overrides,
) -> Tuple[object, HybridMemorySystem]:
    """Build a store (and its machine) configured at benchmark scale.

    ``ssd`` chooses the machine built when ``system`` is None; the
    machine decides where the store's levels live.  ``overrides`` are
    applied to the store's options dataclass -- e.g.
    ``make_store("miodb", num_levels=4)``.
    """
    if not isinstance(name, str):
        raise TypeError(
            f"store name must be a str, got {type(name).__name__}; "
            f"choose from {STORE_NAMES}"
        )
    if scale is not None and not isinstance(scale, BenchScale):
        # The classic mistake is passing the system positionally where
        # the scale goes; without this check it surfaces much later as
        # an AttributeError deep inside option construction.
        hint = (
            " (did you mean make_store(name, system=...)?)"
            if isinstance(scale, HybridMemorySystem)
            else ""
        )
        raise TypeError(
            f"scale must be a BenchScale or None, got {type(scale).__name__}{hint}"
        )
    if system is not None and not isinstance(system, HybridMemorySystem):
        raise TypeError(
            f"system must be a HybridMemorySystem or None, "
            f"got {type(system).__name__}"
        )
    if name in ("novelsm-nosst", "slmdb") and "num_levels" in overrides:
        # Their options carry the field, but nothing reads it.
        raise ValueError(f"{name} has no levels; num_levels does not apply")
    if system is None:
        system = HybridMemorySystem(ssd=ssd)
    elif ssd and system.bottom_tier is system.nvm:
        raise ValueError("ssd=True, but the given system has no SSD")
    scale = scale or BenchScale()
    common = dict(memtable_bytes=scale.memtable_bytes,
                  sstable_bytes=scale.memtable_bytes)

    if name == "miodb":
        options = MioOptions(**common)
        _apply(options, overrides)
        return MioDB(system, options), system
    if name == "matrixkv":
        options = MatrixKVOptions(
            **common,
            container_bytes=scale.nvm_buffer_bytes,
            column_target_bytes=max(scale.memtable_bytes, scale.nvm_buffer_bytes // 4),
        )
        _apply(options, overrides)
        return MatrixKVStore(system, options), system
    if name in ("novelsm", "novelsm-hier"):
        options = NoveLSMOptions(
            **common,
            nvm_memtable_bytes=scale.nvm_buffer_bytes // 2,
            mutable_nvm=name == "novelsm",
        )
        _apply(options, overrides)
        return NoveLSMStore(system, options), system
    if name == "novelsm-nosst":
        options = StoreOptions(**common)
        _apply(options, overrides)
        return NoveLSMNoSSTStore(system, options), system
    if name == "leveldb":
        options = StoreOptions(**common)
        _apply(options, overrides)
        return LevelDBStore(system, options), system
    if name == "slmdb":
        options = StoreOptions(**common)
        _apply(options, overrides)
        return SLMDBStore(system, options), system
    raise ValueError(f"unknown store {name!r}; choose from {STORE_NAMES}")


def _apply(options, overrides: dict) -> None:
    for key, value in overrides.items():
        if not hasattr(options, key):
            raise AttributeError(f"{type(options).__name__} has no option {key!r}")
        setattr(options, key, value)
