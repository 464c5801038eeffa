"""State probes and fault injection on engine internals, for tests only."""

from typing import Optional


def tear_tail(wal, count: int = 1) -> None:
    """Mark the last ``count`` WAL records as torn (partially written).

    Models a crash in the middle of an append: replay must stop at the
    first torn record.
    """
    if count <= 0:
        return
    for record in wal._records[-count:]:
        record.torn = True


def pending_count(wal) -> int:
    """Buffered WAL records awaiting a group-commit flush."""
    return len(wal._pending)


def live_bytes(wal) -> int:
    """Bytes the WAL currently occupies on its device."""
    return sum(r.frame_bytes for r in wal._records if r.synced)


def last_seq(wal) -> Optional[int]:
    """Sequence number of the newest intact WAL record, if any."""
    for record in reversed(wal._records):
        if not record.torn:
            return record.seq
    return None


def last_synced_seq(wal) -> Optional[int]:
    """Sequence number of the newest durable WAL record, if any."""
    for record in reversed(wal._records):
        if not record.torn and record.synced:
            return record.seq
    return None


def built(bloom) -> bool:
    """Whether a query has forced a lazy bloom filter's bits into existence."""
    return bloom._bits is not None
