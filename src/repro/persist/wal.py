"""Write-ahead log on a persistent device.

Every KV store in the reproduction appends a framed record to the WAL
before touching its DRAM MemTable (except NoveLSM's flat mode, which
updates a persistent MemTable in place and needs no log).  Records carry a
CRC-style integrity flag so torn tails can be modelled; the log charges
sequential writes to its device and its traffic counts toward write
amplification, matching MioDB's theoretical WA bound of 3 (log + flush +
lazy copy).

Fsync policy
------------

``fsync_policy`` selects when appended records become durable:

- ``"sync"`` (default) -- every append is one sequential device write;
  a record is durable the instant ``append`` returns.
- ``"batch:N"`` -- group commit: records buffer in volatile memory and
  the Nth buffered record triggers one sequential write of all buffered
  frames (amortizing the device's per-write latency N ways).
- ``"interval:T"`` -- records buffer until ``T`` simulated seconds have
  passed since the first buffered append (read off the device's clock),
  then one write flushes them.

Buffered records are *not yet durable*: a crash loses them
(:meth:`WriteAheadLog.truncate_to_replay`), replay skips them, and
they occupy no device bytes until synced.  ``append_batch`` is always a
commit barrier: it flushes any buffered records first.
"""

import math
from typing import Iterator, List, Optional, Tuple

# Frame: 8B seq + 4B key len + 4B value len + 1B kind/CRC.
RECORD_HEADER_BYTES = 17

#: The fsync policy names accepted by :func:`parse_fsync_policy`.
FSYNC_MODES = ("sync", "batch", "interval")


def parse_fsync_policy(policy: str) -> Tuple[str, float]:
    """``"sync" | "batch:N" | "interval:T"`` -> ``(mode, parameter)``.

    Raises ``ValueError`` on anything else, so a typo'd CLI flag fails
    at store construction rather than silently meaning ``sync``.
    """
    if policy == "sync":
        return "sync", 0.0
    mode, sep, arg = policy.partition(":")
    if sep and mode == "batch":
        try:
            n = int(arg)
        except ValueError:
            n = 0
        if n >= 1:
            return "batch", float(n)
    elif sep and mode == "interval":
        try:
            t = float(arg)
        except ValueError:
            t = 0.0
        if 0 < t < math.inf:  # NaN fails too
            return "interval", t
    raise ValueError(
        f"bad fsync policy {policy!r} (expected 'sync', 'batch:N' with "
        f"N >= 1, or 'interval:T' with 0 < T < inf seconds)"
    )


class WalRecord:
    """One framed log record.

    Records written as part of an atomic batch share a ``batch_id``; the
    batch's last record carries ``commit=True``.  Replay only surfaces a
    batch whose commit record is intact.  ``synced`` is False while the
    record sits in a group-commit buffer (not yet durable).
    """

    __slots__ = (
        "seq", "key", "value", "value_bytes", "torn", "batch_id", "commit",
        "synced",
    )

    def __init__(self, seq: int, key: bytes, value, value_bytes: int) -> None:
        self.seq = seq
        self.key = key
        self.value = value
        self.value_bytes = value_bytes
        self.torn = False
        self.batch_id = None
        self.commit = True
        self.synced = True

    @property
    def frame_bytes(self) -> int:
        """Size of the record on the device."""
        return RECORD_HEADER_BYTES + len(self.key) + self.value_bytes

    def __repr__(self) -> str:
        return f"WalRecord(seq={self.seq}, key={self.key!r})"


class WriteAheadLog:
    """Sequential, truncatable log of KV updates."""

    def __init__(
        self,
        device,
        label: str = "wal",
        fsync_policy: str = "sync",
    ) -> None:
        self.device = device
        self.label = label
        self._records: List[WalRecord] = []
        self.appended_bytes = 0
        self._next_batch_id = 1
        self.fsync_policy = fsync_policy
        self._mode, self._fsync_param = parse_fsync_policy(fsync_policy)
        self._pending: List[WalRecord] = []
        self._window_start: Optional[float] = None

    def append(self, seq: int, key: bytes, value, value_bytes: int) -> float:
        """Append one record; returns the simulated write duration.

        Under a group-commit policy the duration is 0.0 for buffered
        appends and the whole group's write time on the append that
        triggers the flush.
        """
        record = WalRecord(seq, key, value, value_bytes)
        self._records.append(record)
        frame = RECORD_HEADER_BYTES + len(key) + value_bytes
        self.appended_bytes += frame
        if self._mode == "sync":
            return self.device.log_write(frame)
        record.synced = False
        self._pending.append(record)
        if self._sync_due():
            return self.sync()
        return 0.0

    def _sync_due(self) -> bool:
        if self._mode == "batch":
            return len(self._pending) >= int(self._fsync_param)
        # interval: the flush window opens at the first buffered append.
        now = self.device.clock.now
        if self._window_start is None:
            self._window_start = now
        return now >= self._window_start + self._fsync_param

    def sync(self) -> float:
        """Flush buffered records to the device; returns write duration.

        A no-op (0.0) when nothing is buffered -- including always under
        the ``sync`` policy.
        """
        if not self._pending:
            self._window_start = None
            return 0.0
        total = 0
        for record in self._pending:
            record.synced = True
            total += record.frame_bytes
        self._pending = []
        self._window_start = None
        return self.device.log_write(total)

    def append_batch(self, items) -> float:
        """Append an atomic batch of ``(seq, key, value, value_bytes)``.

        The batch commits with its final record; replay drops a batch
        whose commit never made it to the log.  Acts as a commit barrier
        under group-commit policies (buffered records flush first).
        Returns the write duration (one sequential write of all frames).
        """
        if not items:
            return 0.0
        barrier = self.sync()
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        total = 0
        for i, (seq, key, value, value_bytes) in enumerate(items):
            record = WalRecord(seq, key, value, value_bytes)
            record.batch_id = batch_id
            record.commit = i == len(items) - 1
            self._records.append(record)
            total += record.frame_bytes
        self.appended_bytes += total
        return barrier + self.device.log_write(total)

    def truncate_through(self, seq: int) -> int:
        """Drop records with ``record.seq <= seq`` (data safely flushed).

        Returns the number of bytes released on the device.  Buffered
        (unsynced) records are dropped without a release -- they never
        occupied device bytes.  Records are appended in ascending
        ``seq`` (as :meth:`records_since` also relies on: a replica
        appends its leader's records in log order, and recovery keeps a
        prefix-ordered subset), so the dropped records are a prefix,
        found by bisection and deleted in place.
        """
        records = self._records
        lo, hi = 0, len(records)
        while lo < hi:
            mid = (lo + hi) // 2
            if records[mid].seq <= seq:
                lo = mid + 1
            else:
                hi = mid
        freed = 0
        dropped_pending = False
        for record in records[:lo]:
            if record.synced:
                freed += record.frame_bytes
            else:
                dropped_pending = True
        del records[:lo]
        if dropped_pending:
            self._pending = [r for r in self._pending if r.seq > seq]
            if not self._pending:
                self._window_start = None
        if freed:
            self.device.release(freed)
        return freed

    def truncate_to_replay(self) -> List[WalRecord]:
        """Cut the log to the records :meth:`replay` surfaces; return them.

        What a restarting process does with the log a crash left: the
        buffered (unsynced) records are lost, and the torn tail and any
        batch whose commit never landed are discarded.  Kept, a lost
        record would be synced by a later append, and a torn one would
        hide every later append from the next replay.
        """
        kept = list(self.replay())
        freed = sum(r.frame_bytes for r in self._records if r.synced)
        freed -= sum(r.frame_bytes for r in kept)
        self._records = kept
        self._pending = []
        self._window_start = None
        if freed:
            self.device.release(freed)
        return kept

    def replay(self) -> Iterator[WalRecord]:
        """Yield intact durable records in append order, stopping at a torn one.

        Batch records are buffered until their commit record: a batch
        whose commit was torn away is dropped entirely (atomicity).
        Unsynced records are skipped -- they were never durable.
        """
        pending: List[WalRecord] = []
        for record in self._records:
            if record.torn:
                return
            if not record.synced:
                continue
            if record.batch_id is None:
                yield record
                continue
            pending.append(record)
            if record.commit:
                for buffered in pending:
                    yield buffered
                pending = []

    def records_since(self, seq: int) -> List[WalRecord]:
        """Intact records with ``record.seq > seq``, in append order.

        The replication layer's shipping cursor: the leader's group pulls
        fresh frames with this after every acknowledged operation, so
        the walk starts at the tail -- records are appended in ascending
        ``seq`` -- and costs the size of the answer, not of the log.
        """
        records = self._records
        start = len(records)
        while start and records[start - 1].seq > seq:
            start -= 1
        return [r for r in records[start:] if not r.torn]

    @property
    def record_count(self) -> int:
        """Records currently retained (not yet truncated)."""
        return len(self._records)

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.label!r}, records={len(self._records)})"
