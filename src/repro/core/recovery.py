"""Crash recovery for MioDB (paper Section 4.7).

The recovery contract the paper establishes:

- data in the DRAM MemTables is covered by the WAL, which is truncated
  only after the one-piece flush *and* pointer swizzling complete;
- a PMTable whose swizzle had not finished is discarded (its content is
  still in the WAL);
- zero-copy compaction updates pointers with atomic writes, so merged
  PMTables are consistent at any crash point; interrupted merges resume
  from the insertion mark (exercised at the skip-list level in tests);
- the data repository is always consistent because lazy-copy inserts and
  in-place updates are individually atomic and idempotent.

:func:`recover` rebuilds a fresh :class:`MioDB` from whatever survived.
"""

from typing import Tuple

from repro.core.miodb import MioDB
from repro.core.repository import NvmRepository


def recover(crashed: MioDB) -> Tuple[MioDB, float]:
    """Rebuild a MioDB after a simulated crash.

    Returns ``(store, recovery_seconds)``.  The simulated clock is
    advanced by the recovery time (WAL scan plus MemTable replay).
    """
    system = crashed.system
    dropped_jobs = system.executor.crash_reset()
    system.stats.add("recover.dropped_jobs", dropped_jobs)

    # Volatile state of the crashed process is gone.
    for table in (crashed.memtable, crashed.immutable):
        if table is not None and not table.arena.released:
            table.release()
    inflight = crashed._inflight_pmtable
    if inflight is not None and not inflight.swizzled:
        inflight.reclaim()

    store = MioDB(system, crashed.options, crash_injector=crashed.crash)
    # The adopted PMTables' filters fix the one bloom geometry: a fresh
    # one would make merges fail and probes hash for the wrong table.
    store._bloom_geometry = crashed._bloom_geometry

    # Adopt persistent structures: swizzled PMTables, repository, WAL.
    max_seq = 0
    for level, tables in enumerate(crashed.levels):
        for table in tables:
            if not table.swizzled:
                table.reclaim()
                continue
            table.busy = False
            store.levels[level].append(table)
            for node in table.skiplist.nodes():
                if node.seq > max_seq:
                    max_seq = node.seq
    store.repository = crashed.repository
    if isinstance(store.repository, NvmRepository):
        for node in store.repository.skiplist.nodes():
            if node.seq > max_seq:
                max_seq = node.seq

    store.wal = crashed.wal  # the fresh one was never appended to

    # Replay intact WAL records into a fresh MemTable hierarchy; what
    # replay cannot surface leaves the log, so later appends follow
    # the last replayed record.
    seconds = 0.0
    replayed = 0
    for record in store.wal.truncate_to_replay():
        seconds += system.nvm.read(record.frame_bytes, sequential=True)
        seconds += store.stage_logged(
            record.key, record.seq, record.value, record.value_bytes
        )
        if record.seq > max_seq:
            max_seq = record.seq
        replayed += 1

    store.seq = max_seq
    system.clock.advance(seconds)
    system.executor.settle()
    store.compactor.check()
    system.stats.add("recover.count", 1)
    system.stats.add("recover.time_s", seconds)
    system.stats.add("recover.replayed", replayed)
    return store, seconds
