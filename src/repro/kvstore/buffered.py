"""The write buffer every LSM-style engine shares (paper Figure 1).

WAL append -> DRAM MemTable insert -> rotate on full -> block on the
in-flight flush is LevelDB's front end, and NoveLSM, MatrixKV, SLM-DB and
MioDB all keep it: they differ in what sits *behind* the buffer (where a
flushed MemTable lands, what then compacts it) and in how they pace
writes while that backs up.  :class:`BufferedStore` is the front end
written once; an engine supplies three hooks -- :meth:`_write_delay`,
:meth:`_rotate_gate` and :meth:`_schedule_flush` -- and the read path.
"""

from abc import abstractmethod
from typing import Callable, Optional

from repro.kvstore.api import KVStore
from repro.kvstore.memtable import MemTable
from repro.obs.events import CAT_COMPACT, CAT_FLUSH, STALL_MEMTABLE_FULL
from repro.persist.crash import PASSIVE_INJECTOR
from repro.persist.wal import WriteAheadLog
from repro.sim.executor import advance
from repro.sim.rng import XorShiftRng


def submit_compaction(system, worker, seconds: float, apply, name: str, **meta):
    """Account one compaction job and queue it on ``worker``: every
    engine's compactions enter the executor here, so ``compact.time_s``
    is the sum of the traced ``compact`` spans."""
    system.stats.add("compact.time_s", seconds)
    return system.executor.submit(
        worker, seconds, apply, name=name, meta={"cat": CAT_COMPACT, **meta},
    )


class BufferedStore(KVStore):
    """A store that stages writes in a WAL-covered DRAM MemTable pair."""

    #: Why shipping this store's WAL to a follower would *not* reproduce
    #: it (``None`` when it does); checked by ``ReplicaGroup``.
    unlogged_writes: Optional[str] = None

    def __init__(
        self, system, options, rng_seed: int, wal_device, crash_injector=None,
    ) -> None:
        super().__init__(system, options)
        self.crash = crash_injector or PASSIVE_INJECTOR
        self.rng = XorShiftRng(rng_seed)
        self.wal = WriteAheadLog(
            wal_device, f"{self.name}-wal", fsync_policy=options.fsync_policy
        )
        self.memtable = MemTable(system, options.memtable_bytes, self.rng.fork())
        self.immutable: Optional[MemTable] = None
        self._flush_job = None
        #: The engine assigns this once its own workers exist:
        #: ``Executor.workers`` is creation-ordered and exporters list it.
        self.flush_worker = None

    # ------------------------------------------------------------ write path

    def _put(self, key: bytes, seq: int, value, value_bytes: int) -> float:
        seconds = self._write_delay()
        if self.memtable.is_full:
            self._make_room()
        seconds += self.wal.append(seq, key, value, value_bytes)
        if self.crash is not PASSIVE_INJECTOR:  # the default can never fire
            self.crash.reach("put.after_wal")
        return seconds + self.memtable.insert(key, seq, value, value_bytes)

    def stage_logged(
        self, key: bytes, seq: int, value, value_bytes: int, stall: bool = False,
    ) -> float:
        """Stage one record that is already in a log; returns its cost.

        The entry point for everything that is not a fresh ``put``: a
        committed write batch (``stall=True``: a foreground op, paced
        like one), crash recovery and follower replay.  Replay runs
        inside background callbacks and must not advance the clock, so
        it rotates a full MemTable *without* waiting for the previous
        flush; the table it displaces from ``immutable`` stays alive in
        its flush job and retires normally.
        """
        if self.memtable.is_full:
            self._make_room(stall)
        return self.memtable.insert(key, seq, value, value_bytes)

    @property
    def _flush_busy(self) -> bool:
        return self._flush_job is not None and not self._flush_job.done

    def _await_flush(self, job) -> float:
        """Block on ``job`` if it is still in flight (``memtable-full``)."""
        if job is None or job.done:
            return 0.0
        return self._stall_wait(
            STALL_MEMTABLE_FULL, self.system.executor.wait_for(job)
        )

    def _make_room(self, stall: bool = True) -> None:
        """Rotate the full MemTable; a foreground write first awaits the
        in-flight flush and the engine's gate."""
        if stall:
            self._await_flush(self._flush_job)
            self._rotate_gate()
        self._rotate_memtable()

    def _rotate_memtable(self) -> None:
        old = self.immutable = self.memtable
        self.memtable = old.rotate(self.rng)
        self._flush_job = self._schedule_flush(old)

    def _stall_until(
        self, cause: str, blocked: Callable[[], bool], kick: Callable[[], None],
    ) -> None:
        """Interval-stall until ``blocked()`` clears.

        Each round ``kick()`` gives the engine a chance to schedule the
        work that will unblock it, then the clock jumps to the next
        background completion.
        """
        clock = self.system.clock
        executors = (self.system.executor,)
        while blocked():
            kick()
            before = clock.now
            if not advance(executors):
                raise RuntimeError(f"{cause}: blocked with no background work pending")
            self._stall_wait(cause, clock.now - before)

    # ---------------------------------------------------------- flush plumbing

    def _submit_flush(self, table: MemTable, seconds: float, done, name: str, **meta):
        """Account one MemTable flush and queue it on the flush worker."""
        stats = self.system.stats
        stats.add("flush.count", 1)
        stats.add("flush.time_s", seconds)
        stats.add("flush.bytes", table.data_bytes)
        return self.system.executor.submit(
            self.flush_worker, seconds, done, name=name,
            meta={"cat": CAT_FLUSH, "bytes": table.data_bytes, **meta},
        )

    def _retire(self, table: MemTable) -> None:
        """A flushed table's content is durable elsewhere: let go of it.

        Engines call this from the flush job's callback *after*
        installing the flushed data and *before* re-triggering
        compaction.
        """
        table.release()
        if self.immutable is table:
            self.immutable = None
        self.wal.truncate_through(table.last_seq)

    # --------------------------------------------------------- engine hooks

    def _write_delay(self) -> float:
        """Cumulative-stall delay folded into this write (default none)."""
        return 0.0

    def _rotate_gate(self) -> None:
        """Block while the engine cannot take another flush (default never)."""

    @abstractmethod
    def _schedule_flush(self, table: MemTable):
        """Cost and queue the flush of ``table``; return its last job."""
