"""Critical-path extraction for foreground stalls.

An interval stall (``memtable-full``, ``l0-stop``, ``buffer-cap``) ends
exactly when some background job completes -- the store blocked on it by
advancing the clock to the job's end.  Walking backward from that
*releasing* job names the chain of flush/compaction work the foreground
was really waiting on:

- a job whose worker-queue wait is positive (``wait_s > 0``) ran behind
  its worker's previous job -- the same-worker span ending at its start;
- a job submitted at the instant another job completed was scheduled by
  that job's completion callback (compaction cascades) -- a cross-worker
  dependency edge.

Both edge kinds are recovered from the trace alone: worker spans carry
``wait_s`` (start minus submission time), so the submission instant is
``start - wait_s``, and the simulation's determinism makes the time
matches exact, not heuristic.
"""

from typing import Dict, List

from repro.obs.events import CAT_REPL_ELECTION, CAT_STALL

#: Don't walk job chains deeper than this (cascades are short in practice).
MAX_CHAIN_DEPTH = 8


class StallChain:
    """One foreground stall and the background job chain behind it."""

    __slots__ = ("cause", "start", "duration_s", "chain")

    def __init__(self, cause: str, start: float, duration_s: float, chain: List[dict]):
        self.cause = cause
        self.start = start
        self.duration_s = duration_s
        #: Releasing job first, then its predecessors (dependency order).
        self.chain = chain

    def as_dict(self) -> dict:
        return {
            "cause": self.cause,
            "start_s": self.start,
            "duration_s": self.duration_s,
            "chain": self.chain,
        }

    def __repr__(self) -> str:
        names = " <- ".join(link["job"] for link in self.chain) or "(none)"
        return (
            f"StallChain({self.cause!r}, {self.duration_s * 1e6:.1f}us, {names})"
        )


def _job_record(span) -> dict:
    args = span.args or {}
    record = {
        "job": span.name,
        "worker": span.track.split(":", 1)[1],
        "start_s": span.ts,
        "duration_s": span.dur,
        "wait_s": args.get("wait_s", 0.0),
    }
    if "level" in args:
        record["level"] = args["level"]
    return record


def critical_paths(recorder) -> List[StallChain]:
    """A :class:`StallChain` for every interval stall in the trace."""
    index = recorder.index()
    jobs = index.workers
    by_end: Dict[float, List] = {}
    for span in jobs:
        by_end.setdefault(span.end, []).append(span)

    def releasing_job(at: float):
        candidates = by_end.get(at)
        if not candidates:
            return None
        # Several jobs can end at the same instant; the last-emitted one
        # is the one the settle loop applied last, but any of them kept
        # the foreground blocked -- pick the longest as the bottleneck.
        return max(candidates, key=lambda s: (s.dur, s.ts))

    def predecessor(span):
        submitted = span.ts - (span.args or {}).get("wait_s", 0.0)
        trigger = by_end.get(submitted)
        if trigger:
            # Submitted the instant another job completed: scheduled by
            # that job's completion callback.
            others = [s for s in trigger if s is not span]
            if others:
                return max(others, key=lambda s: (s.dur, s.ts))
        if (span.args or {}).get("wait_s", 0.0) > 0.0:
            for other in jobs:
                if other.track == span.track and other.end == span.ts:
                    return other
        return None

    chains: List[StallChain] = []
    for event in index.of(CAT_STALL):
        if not event.is_span:
            continue
        cause = (event.args or {}).get("cause", "unknown")
        chain: List[dict] = []
        seen = set()
        job = releasing_job(event.end)
        depth = 0
        while job is not None and depth < MAX_CHAIN_DEPTH:
            if id(job) in seen:
                break
            seen.add(id(job))
            chain.append(_job_record(job))
            job = predecessor(job)
            depth += 1
        chains.append(StallChain(cause, event.ts, event.dur, chain))
    return chains


def failover_timelines(recorder) -> List[dict]:
    """Failover critical paths: kill -> election -> truncation -> re-point.

    Reconstructed purely from the causal parent links on
    ``repl.election`` events: blocked/truncate/elect instants carry the
    triggering kill's span id as ``parent``, and the repoint instant
    carries the elect span's id.  One timeline per kill that caused
    election activity (a leader kill, or the follower kill that left a
    blocked election without quorum); ``duration_s`` is the leaderless
    window -- kill to repoint -- when the failover completed.
    """
    candidates: List[dict] = []
    by_kill: Dict[int, dict] = {}
    by_elect: Dict[int, dict] = {}
    for event in recorder.index().of(CAT_REPL_ELECTION):
        args = event.args or {}
        span = args.get("span")
        parent = args.get("parent")
        if event.name == "kill":
            timeline = {
                "group": args.get("group"),
                "kill_t_s": event.ts,
                "replica": args.get("replica"),
                "role": args.get("role"),
                "blocked": [],
                "restarts": [],
                "truncated_records": 0,
                "elect_start_s": None,
                "elect_end_s": None,
                "winner": None,
                "epoch": None,
                "repoint_t_s": None,
                "duration_s": None,
            }
            by_kill[span] = timeline
            candidates.append(timeline)
        elif event.name == "election-blocked":
            timeline = by_kill.get(parent)
            if timeline is not None:
                timeline["blocked"].append({
                    "t_s": event.ts,
                    "alive": args.get("alive"),
                    "quorum": args.get("quorum"),
                })
        elif event.name == "truncate":
            timeline = by_kill.get(parent)
            if timeline is not None:
                timeline["truncated_records"] = args.get("records", 0)
        elif event.name == "elect":
            timeline = by_kill.get(parent)
            if timeline is not None:
                timeline["elect_start_s"] = event.ts
                timeline["elect_end_s"] = event.end
                timeline["winner"] = args.get("replica")
                by_elect[span] = timeline
        elif event.name == "repoint":
            timeline = by_elect.get(parent)
            if timeline is not None:
                timeline["repoint_t_s"] = event.ts
                timeline["epoch"] = args.get("epoch")
                timeline["duration_s"] = event.ts - timeline["kill_t_s"]
        elif event.name == "restart":
            # Restarts carry no parent (the replacement is a fresh node);
            # attach to the most recent still-unresolved failover, which
            # is the one the restart can unblock.
            for timeline in reversed(candidates):
                if timeline["repoint_t_s"] is None:
                    timeline["restarts"].append({
                        "t_s": event.ts,
                        "replica": args.get("replica"),
                    })
                    break
    return [
        timeline for timeline in candidates
        if timeline["role"] == "leader"
        or timeline["blocked"]
        or timeline["elect_start_s"] is not None
    ]


def stall_blame(chains: List[StallChain]) -> dict:
    """Stalled seconds per cause, blamed on the releasing job's name.

    The job whose completion unblocked the foreground carries the
    stall's full duration; the rest of the chain is context.  Keys are
    sorted for deterministic serialization.
    """
    blame: Dict[str, Dict[str, float]] = {}
    for chain in chains:
        job = chain.chain[0]["job"] if chain.chain else "(no pending job)"
        per_cause = blame.setdefault(chain.cause, {})
        per_cause[job] = per_cause.get(job, 0.0) + chain.duration_s
    return {
        cause: dict(sorted(blame[cause].items())) for cause in sorted(blame)
    }
