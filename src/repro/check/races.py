"""Simulated-concurrency race detector: happens-before over the SimClock.

The simulation is single-threaded Python, so nothing here is a data
race in the C sense.  What *can* go wrong is logical: a background
flush/compaction job occupies an interval of simulated time, and if the
state it reads is mutated by foreground operations inside that interval
(or by an overlapping job), the engine is claiming work against a
moving target -- exactly the class of bug the repo's determinism
fingerprints can mask until a reordering exposes it.

The detector is opt-in instrumentation over ``repro.sim.executor`` and
``repro.mem.system`` (``system.attach_race_detection()``).  It builds a
happens-before relation from the events the executor already has:

- foreground operations are totally ordered (one simulated thread);
- a job happens-after the operation that submitted it;
- a job happens-before every operation at or after the settle that
  applied its callback (``wait_for`` stall-release is a settle, so a
  foreground stall on a job synchronizes with it);
- jobs on one worker serialize (their spans cannot overlap);
- each job carries a vector clock joined from the foreground and its
  worker chain, ordering job pairs across workers.

Accesses are declared, not inferred, over coarse named regions of store
state: the :class:`~repro.kvstore.api.KVStore` base class records every
foreground op as a read or write of ``"memtable:active"``, and each
engine declares what its jobs touch via the ``accesses=`` argument of
``Executor.submit`` (e.g. a flush reads ``"memtable:imm"``).  A
conflicting pair (at least one write, same region) with no
happens-before edge is reported as a race.

Nothing about the simulation changes while a detector is attached: it
only observes submits/settles, so clocks, stats, and traces stay
byte-identical.
"""

from typing import Dict, List, Optional, Tuple

#: The mutable MemTable every foreground write lands in.  Engines must
#: rotate it to an immutable region before background work may read it.
REGION_MEMTABLE = "memtable:active"
#: A frozen (rotated) MemTable being flushed; foreground ops may read
#: the store through it but never write it.
REGION_IMMUTABLE = "memtable:imm"

READ = "r"
WRITE = "w"


class _JobNode:
    """Happens-before metadata for one background job."""

    __slots__ = (
        "name", "worker", "seq", "vc", "submit_at", "apply_at",
        "accesses", "cancelled",
    )

    def __init__(self, name, worker, seq, vc, submit_at, accesses) -> None:
        self.name = name
        self.worker = worker
        self.seq = seq
        self.vc = vc
        #: Foreground access counter when the job was submitted.
        self.submit_at = submit_at
        #: Counter when its callback applied (None while in flight).
        self.apply_at: Optional[int] = None
        self.accesses: Tuple[Tuple[str, str], ...] = tuple(accesses)
        self.cancelled = False

    @property
    def label(self) -> str:
        return f"{self.name}@{self.worker}#{self.seq}"


class Race:
    """One unsynchronized conflicting pair on a shared region."""

    __slots__ = ("region", "job", "job_mode", "other", "other_mode", "count")

    def __init__(self, region, job, job_mode, other, other_mode, count=1):
        self.region = region
        self.job = job
        self.job_mode = job_mode
        self.other = other
        self.other_mode = other_mode
        self.count = count

    def render(self) -> str:
        times = f" (x{self.count})" if self.count > 1 else ""
        return (
            f"race on {self.region!r}: {self.job} ({self.job_mode}) is "
            f"concurrent with {self.other} ({self.other_mode}){times}"
        )

    def __repr__(self) -> str:
        return f"Race({self.render()})"


def _vc_leq(a: Dict[str, int], b: Dict[str, int]) -> bool:
    return all(b.get(worker, 0) >= seq for worker, seq in a.items())


class RaceDetector:
    """Builds the happens-before graph and reports conflicting pairs."""

    def __init__(self) -> None:
        #: Monotonic foreground access counter (one tick per op).
        self._counter = 0
        #: region -> [(counter, mode, op-kind)] foreground accesses.
        self._fg: Dict[str, List[Tuple[int, str, str]]] = {}
        #: Foreground vector clock: joined from every applied job.
        self._fg_vc: Dict[str, int] = {}
        self._jobs: List[_JobNode] = []
        self._live: Dict[object, _JobNode] = {}
        self._worker_seq: Dict[str, int] = {}
        self._worker_last_vc: Dict[str, Dict[str, int]] = {}
        self._system = None

    # ------------------------------------------------------ attach/detach

    def attach(self, system) -> "RaceDetector":
        if self._system is not None:
            raise RuntimeError("detector is already attached")
        if system.race is not None:
            raise RuntimeError("system already has a race detector attached")
        self._system = system
        system.race = self
        system.executor.race = self
        return self

    def detach(self) -> None:
        system = self._system
        if system is None:
            return
        self._system = None
        system.race = None
        system.executor.race = None

    @property
    def attached(self) -> bool:
        return self._system is not None

    @property
    def jobs_observed(self) -> int:
        """Background jobs seen since attach (sanity for smoke runs)."""
        return len(self._jobs)

    # ------------------------------------------------------------- events

    def op(self, kind: str, reads=(), writes=()) -> None:
        """One foreground operation touching the named regions.

        Called by the KVStore base class after it settles due background
        work, so a job applied by that settle is ordered before this op.
        """
        self._counter += 1
        at = self._counter
        for region in reads:
            self._fg.setdefault(region, []).append((at, READ, kind))
        for region in writes:
            self._fg.setdefault(region, []).append((at, WRITE, kind))

    def on_submit(self, job, accesses) -> None:
        """Executor hook: a background job entered flight."""
        worker = job.worker.name
        seq = self._worker_seq.get(worker, 0) + 1
        self._worker_seq[worker] = seq
        vc = dict(self._fg_vc)
        last = self._worker_last_vc.get(worker)
        if last is not None:
            for name, value in last.items():
                if value > vc.get(name, 0):
                    vc[name] = value
        vc[worker] = seq
        node = _JobNode(job.name, worker, seq, vc, self._counter,
                        accesses or ())
        self._worker_last_vc[worker] = vc
        self._jobs.append(node)
        self._live[job] = node

    def on_apply(self, job) -> None:
        """Executor hook: a settle is about to apply the job's callback."""
        node = self._live.pop(job, None)
        if node is None:
            return
        node.apply_at = self._counter
        for name, value in node.vc.items():
            if value > self._fg_vc.get(name, 0):
                self._fg_vc[name] = value

    def on_cancel(self, job) -> None:
        """Executor hook: crash_reset discarded the job's effects.

        The in-flight interval still existed before the crash, so the
        node stays; it just stops being concurrent with anything later.
        A crash is not synchronization, so the foreground clock is *not*
        joined with the cancelled job.
        """
        node = self._live.pop(job, None)
        if node is None:
            return
        node.apply_at = self._counter
        node.cancelled = True

    # ------------------------------------------------------------ queries

    def races(self) -> List[Race]:
        """All unsynchronized conflicting pairs observed so far.

        Deterministic: jobs are visited in submit order and foreground
        accesses in program order.
        """
        out: List[Race] = []
        out.extend(self._fg_job_races())
        out.extend(self._job_job_races())
        return out

    def _fg_job_races(self) -> List[Race]:
        out: List[Race] = []
        for node in self._jobs:
            # The job is concurrent with foreground accesses strictly
            # after its submit and at-or-before the settle that applied
            # it (an op's own accesses are recorded after its settle,
            # so they land one tick past apply_at and are ordered).
            hi = node.apply_at if node.apply_at is not None else self._counter
            for job_mode, region in node.accesses:
                conflicts = [
                    (at, mode, kind)
                    for at, mode, kind in self._fg.get(region, ())
                    if node.submit_at < at <= hi
                    and (job_mode == WRITE or mode == WRITE)
                ]
                if not conflicts:
                    continue
                first = conflicts[0]
                out.append(
                    Race(
                        region,
                        node.label,
                        job_mode,
                        f"foreground {first[2]} (access #{first[0]})",
                        first[1],
                        count=len(conflicts),
                    )
                )
        return out

    def _job_job_races(self) -> List[Race]:
        out: List[Race] = []
        for i, a in enumerate(self._jobs):
            writes_a = {r for m, r in a.accesses if m == WRITE}
            regions_a = {r for __, r in a.accesses}
            if not regions_a:
                continue
            for b in self._jobs[i + 1:]:
                shared = [
                    (mode, region)
                    for mode, region in b.accesses
                    if region in regions_a
                    and (mode == WRITE or region in writes_a)
                ]
                if not shared:
                    continue
                if _vc_leq(a.vc, b.vc) or _vc_leq(b.vc, a.vc):
                    continue
                mode_b, region = shared[0]
                mode_a = WRITE if region in writes_a else READ
                out.append(
                    Race(region, a.label, mode_a, b.label, mode_b)
                )
        return out

    def report(self) -> str:
        races = self.races()
        if not races:
            return "race check: clean (0 conflicts)"
        lines = [f"race check: {len(races)} conflict(s)"]
        lines.extend(race.render() for race in races)
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        return (
            f"RaceDetector({len(self._jobs)} jobs, "
            f"{self._counter} fg accesses, {state})"
        )


# -------------------------------------------------------------- smoke run

#: Engines with no background jobs by design (everything in place), so
#: the smoke run's zero-jobs vacuity check does not apply to them.
NO_BACKGROUND_STORES = ("novelsm-nosst",)


#: The smoke workload: nominal value bytes, reads after the fill, seed.
_SMOKE_VALUE_SIZE = 256
_SMOKE_READS = 64
_SMOKE_SEED = 1


def race_smoke(store_names=None, n: int = 256) -> Dict[str, List[Race]]:
    """Run every store under a small dbbench fill+read with detection on.

    Returns ``{store_name: [races...]}``; all lists empty means the real
    engines declare only synchronized accesses.  Small by design -- the
    CI gate runs it on every push -- but the MemTable is shrunk so the
    fill rotates, flushes, and compacts many times per store (a smoke
    run that schedules zero background jobs would be vacuous; callers
    can assert on ``jobs_observed``).
    """
    from repro.bench import BenchScale, STORE_NAMES, make_store
    from repro.workloads import fill_random, read_random

    scale = BenchScale(
        memtable_bytes=8 << 10,
        dataset_bytes=1 << 20,
        value_size=_SMOKE_VALUE_SIZE,
        nvm_buffer_bytes=64 << 10,
    )
    results: Dict[str, List[Race]] = {}
    for name in store_names or STORE_NAMES:
        store, system = make_store(name, scale)
        detector = system.attach_race_detection()
        fill_random(store, n, _SMOKE_VALUE_SIZE, seed=_SMOKE_SEED)
        store.quiesce()
        read_random(store, min(_SMOKE_READS, n), n, seed=_SMOKE_SEED + 1)
        system.detach_race_detection()
        if not detector.jobs_observed and name not in NO_BACKGROUND_STORES:
            raise AssertionError(
                f"race smoke for {name!r} scheduled no background jobs; "
                "shrink the scale or grow the workload"
            )
        results[name] = detector.races()
    return results
