"""db_bench-equivalent microbenchmarks (the paper's Section 5.1).

Four modes, matching LevelDB's tool: fillrandom, fillseq, readrandom,
readseq.  Writes use 16-byte keys and a configurable nominal value size;
reads query keys known to exist.

Every phase builds its op stream once; ``batch_size`` only picks how
:mod:`repro.workloads.runner` issues it (per op, or ``multi_*`` chunks).
"""

from typing import Optional

from repro.kvstore.values import SizedValue
from repro.sim.rng import XorShiftRng
from repro.workloads.keys import key_for
from repro.workloads.runner import (
    Phase,
    RunResult,
    issue_deletes,
    issue_gets,
    issue_puts,
)


def fill_random(
    store,
    n: int,
    value_size: int,
    seed: int = 1,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Write ``n`` KV pairs in random key order."""
    order = list(range(n))
    XorShiftRng(seed).shuffle(order)
    items = (
        (key_for(index), SizedValue(tag, value_size))
        for tag, index in enumerate(order)
    )
    with Phase("fillrandom", store.system) as phase:
        issue_puts(store, items, batch_size)
    return phase.result()


def fill_seq(
    store,
    n: int,
    value_size: int,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Write ``n`` KV pairs in ascending key order."""
    items = ((key_for(index), SizedValue(index, value_size)) for index in range(n))
    with Phase("fillseq", store.system) as phase:
        issue_puts(store, items, batch_size)
    return phase.result()


def read_random(
    store,
    n_reads: int,
    key_space: int,
    seed: int = 2,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Read ``n_reads`` uniformly random existing keys."""
    rng = XorShiftRng(seed)
    keys = (key_for(rng.next_below(key_space)) for __ in range(n_reads))
    with Phase("readrandom", store.system) as phase:
        misses = issue_gets(store, keys, batch_size)
    if misses:
        raise AssertionError(f"readrandom missed {misses}/{n_reads} existing keys")
    return phase.result()


def read_seq(
    store, n_reads: int, key_space: int, batch_size: Optional[int] = None
) -> RunResult:
    """Read keys in ascending order from the first (db_bench's readseq)."""
    keys = (key_for(i % key_space) for i in range(n_reads))
    with Phase("readseq", store.system) as phase:
        issue_gets(store, keys, batch_size)
    return phase.result()


def overwrite(
    store, n: int, key_space: int, value_size: int, seed: int = 3,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Random overwrites of existing keys (db_bench's overwrite)."""
    rng = XorShiftRng(seed)
    items = (
        (key_for(rng.next_below(key_space)), SizedValue(("ow", tag), value_size))
        for tag in range(n)
    )
    with Phase("overwrite", store.system) as phase:
        issue_puts(store, items, batch_size)
    return phase.result()


def delete_random(
    store, n: int, key_space: int, seed: int = 4,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Random deletions (db_bench's deleterandom)."""
    rng = XorShiftRng(seed)
    keys = (key_for(rng.next_below(key_space)) for __ in range(n))
    with Phase("deleterandom", store.system) as phase:
        issue_deletes(store, keys, batch_size)
    return phase.result()


def seek_random(
    store, n_seeks: int, key_space: int, scan_length: int = 10, seed: int = 5
) -> RunResult:
    """Random short range scans (db_bench's seekrandom)."""
    rng = XorShiftRng(seed)
    with Phase("seekrandom", store.system) as phase:
        for __ in range(n_seeks):
            store.scan(key_for(rng.next_below(key_space)), scan_length)
    return phase.result()
