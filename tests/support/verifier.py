"""Internal-state invariant checking for MioDB.

``verify_store`` walks a live store and asserts the structural
invariants the design relies on.  Tests call it after workloads (and
after crash recovery) so violations surface at the point of corruption
rather than as a wrong read much later.

Invariants checked:

1.  Age ordering: every version of a key found in a younger source is
    newer than any version in an older source (this is what makes the
    read path's first-hit-wins correct).
2.  Level structure: tables know their level; reclaimable tables are
    not linked; busy tables belong to a scheduled job.
3.  Accounting: skip-list data/garbage bytes are non-negative and the
    arenas of live tables cover their footprints.
4.  Repository: at most one version per key, no tombstones, sorted.
5.  WAL: every record still in the log is newer than the newest flushed
    sequence number (truncation kept up).
"""

from typing import List

from repro.skiplist.node import TOMBSTONE


class InvariantViolation(AssertionError):
    """Raised when a store invariant does not hold."""


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def verify_store(store) -> None:
    """Check every invariant on a quiescent or live MioDB instance."""
    verify_age_ordering(store)
    verify_level_structure(store)
    verify_accounting(store)
    verify_repository(store)
    verify_wal(store)


def _source_chain(store) -> List:
    """Skip lists from youngest to oldest, as the read path visits them."""
    chain = []
    for table in (store.memtable, store.immutable):
        if table is not None:
            chain.append(table.skiplist)
    for level_tables in store.levels:
        for pmtable in reversed(level_tables):
            chain.append(pmtable.skiplist)
    return chain


def verify_age_ordering(store) -> None:
    """Any key's max seq must not increase while walking older sources."""
    newest_seen = {}
    for rank, skiplist in enumerate(_source_chain(store)):
        per_key_newest = {}
        for node in skiplist.nodes():
            if node.key not in per_key_newest:
                per_key_newest[node.key] = node.seq
        for key, seq in per_key_newest.items():
            if key in newest_seen and seq > newest_seen[key]:
                _fail(
                    f"age inversion for {key!r}: source #{rank} holds seq "
                    f"{seq} > younger source's {newest_seen[key]}"
                )
            newest_seen.setdefault(key, seq)
    if hasattr(store.repository, "skiplist"):
        for node in store.repository.skiplist.nodes():
            if node.key in newest_seen and node.seq > newest_seen[node.key]:
                _fail(
                    f"repository holds seq {node.seq} for {node.key!r}, newer "
                    f"than the buffer's {newest_seen[node.key]}"
                )


def verify_level_structure(store) -> None:
    for level, tables in enumerate(store.levels):
        for pmtable in tables:
            if pmtable.level != level:
                _fail(f"{pmtable!r} thinks it is at L{pmtable.level}, found at L{level}")
            if pmtable.reclaimable:
                _fail(f"reclaimable {pmtable!r} still linked at L{level}")
            if not pmtable.swizzled and pmtable is not store._inflight_pmtable:
                _fail(f"unswizzled {pmtable!r} linked at L{level}")


def verify_accounting(store) -> None:
    for level_tables in store.levels:
        for pmtable in level_tables:
            sl = pmtable.skiplist
            if sl.data_bytes < 0 or sl.garbage_bytes < 0:
                _fail(f"negative byte accounting on {pmtable!r}")
            if pmtable.busy:
                # a zero-copy merge moved nodes in eagerly; the donor's
                # arenas transfer when the merge job completes
                continue
            live_arena = sum(a.size for a in pmtable.arenas if not a.released)
            if live_arena and sl.data_bytes > live_arena:
                # merged tables own multiple arenas; live data must fit
                _fail(
                    f"{pmtable!r} holds {sl.data_bytes}B of data in "
                    f"{live_arena}B of arenas"
                )
    if store.system.nvm.bytes_in_use < 0:
        _fail("NVM device accounting went negative")


def verify_repository(store) -> None:
    repo = store.repository
    if not hasattr(repo, "skiplist"):
        return
    last_key = None
    for node in repo.skiplist.nodes():
        if node.value is TOMBSTONE:
            _fail(f"tombstone for {node.key!r} persisted into the repository")
        if last_key is not None and node.key <= last_key:
            _fail(f"repository order violated at {node.key!r}")
        last_key = node.key


def verify_wal(store) -> None:
    flushed_max = 0
    for level_tables in store.levels:
        for pmtable in level_tables:
            for node in pmtable.skiplist.nodes():
                if node.seq > flushed_max:
                    flushed_max = node.seq
    stale = sum(1 for r in store.wal.replay() if r.seq <= flushed_max)
    # records <= flushed_max may linger only if they belong to the
    # still-unflushed MemTables (possible when seqs interleave after
    # recovery); they must at least be present in a live MemTable
    if stale:
        live = set()
        for table in (store.memtable, store.immutable):
            if table is not None:
                live.update(n.seq for n in table.skiplist.nodes())
        for record in store.wal.replay():
            if record.seq <= flushed_max and record.seq not in live:
                _fail(
                    f"WAL record seq {record.seq} is older than flushed data "
                    "but covers no live MemTable entry"
                )
