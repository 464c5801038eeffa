"""db_bench-equivalent microbenchmarks (the paper's Section 5.1).

Four modes, matching LevelDB's tool: fillrandom, fillseq, readrandom,
readseq.  Writes use 16-byte keys and a configurable nominal value size;
reads query keys known to exist.

Every phase draws its op stream one column at a time
(:func:`~repro.workloads.runner.columns`); ``batch_size`` only picks how
:mod:`repro.workloads.runner` issues it (per op, or ``multi_*`` chunks).
"""

from typing import Optional

from repro.kvstore.values import SizedValue
from repro.sim.rng import XorShiftRng
from repro.workloads.keys import keys_for
from repro.workloads.runner import Phase, RunResult, columns, issuer


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
    issue = issuer(store, batch_size)
    with Phase("fillrandom", store.system) as phase:
        for ops in columns(n):
            issue.puts(
                keys_for(order[ops.start:ops.stop]),
                [SizedValue(tag, value_size) for tag in ops],
            )
    return phase.result()


def fill_seq(
    store,
    n: int,
    value_size: int,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Write ``n`` KV pairs in ascending key order."""
    issue = issuer(store, batch_size)
    with Phase("fillseq", store.system) as phase:
        for ops in columns(n):
            issue.puts(keys_for(ops), [SizedValue(index, value_size) for index in ops])
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
    issue = issuer(store, batch_size)
    with Phase("readrandom", store.system) as phase:
        for ops in columns(n_reads):
            issue.gets(keys_for(rng.belows(len(ops), key_space)))
    if issue.misses:
        raise AssertionError(
            f"readrandom missed {issue.misses}/{n_reads} existing keys"
        )
    return phase.result()


def read_seq(
    store, n_reads: int, key_space: int, batch_size: Optional[int] = None
) -> RunResult:
    """Read keys in ascending order from the first (db_bench's readseq)."""
    issue = issuer(store, batch_size)
    with Phase("readseq", store.system) as phase:
        for ops in columns(n_reads):
            issue.gets(keys_for([i % key_space for i in ops]))
    return phase.result()


def overwrite(
    store, n: int, key_space: int, value_size: int, seed: int = 3,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Random overwrites of existing keys (db_bench's overwrite)."""
    rng = XorShiftRng(seed)
    issue = issuer(store, batch_size)
    with Phase("overwrite", store.system) as phase:
        for ops in columns(n):
            issue.puts(
                keys_for(rng.belows(len(ops), key_space)),
                [SizedValue(("ow", tag), value_size) for tag in ops],
            )
    return phase.result()


def delete_random(
    store, n: int, key_space: int, seed: int = 4,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Random deletions (db_bench's deleterandom)."""
    rng = XorShiftRng(seed)
    issue = issuer(store, batch_size)
    with Phase("deleterandom", store.system) as phase:
        for ops in columns(n):
            issue.deletes(keys_for(rng.belows(len(ops), key_space)))
    return phase.result()


def seek_random(
    store, n_seeks: int, key_space: int, scan_length: int = 10, seed: int = 5
) -> RunResult:
    """Random short range scans (db_bench's seekrandom)."""
    rng = XorShiftRng(seed)
    scan = store.scan
    with Phase("seekrandom", store.system) as phase:
        for ops in columns(n_seeks):
            for key in keys_for(rng.belows(len(ops), key_space)):
                scan(key, scan_length)
    return phase.result()
