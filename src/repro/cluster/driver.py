"""Multi-client open-loop driving of a sharded cluster.

This generalises :func:`repro.workloads.openloop.run_open_loop` to a
cluster: several clients issue requests with independent Poisson (or
fixed-gap) arrival processes, requests route through a
:class:`~repro.cluster.router.ShardRouter`, and every shard has a
bounded admission queue.  A client with ``rate_per_s=math.inf`` runs
closed-loop (its next request arrives when the previous one completes),
so saturating and rate-limited clients mix through one code path.

The serving model matches the repo's shared-clock discipline: the
cluster executes one foreground request at a time on the shared
:class:`~repro.sim.clock.SimClock` while background jobs of *all*
shards overlap freely.  Requests whose arrival time has passed wait in
their shard's FIFO queue; a queue at ``max_queue_depth`` sheds load --
immediately (``"reject"``) or after bounded defers (``"defer"``) --
with every shed request tagged by a cause from the closed
:data:`DROP_CAUSES` vocabulary.

Response time is completion minus *arrival* (queueing included), pooled
across shards with :meth:`LatencyRecorder.merge` for cluster-level
percentiles.
"""

import heapq
import itertools
import math
from collections import deque
from typing import Dict, List, Optional

from repro.cluster.rebalance import maybe_rebalance
from repro.kvstore.api import require_count
from repro.kvstore.values import SizedValue

# The closed load-shedding vocabulary lives in ``repro.obs.events``
# (next to the stall causes, so ``check_vocabulary`` validates both);
# re-exported here because the cluster layer is its main producer.
from repro.obs.events import (  # noqa: F401  (re-exports)
    CAT_QUEUE,
    DROP_CAUSES,
    DROP_NO_LEADER,
    DROP_QUEUE_FULL,
    DROP_RETRY_EXHAUSTED,
)
from repro.sim.host import collector_paused
from repro.sim.latency import LatencyRecorder, LatencySummary
from repro.sim.rng import XorShiftRng
from repro.workloads.keys import keys_for
from repro.workloads.runner import COLUMN_CHUNK
from repro.workloads.zipfian import UniformGenerator, ZipfianGenerator

ADMISSION_POLICIES = ("reject", "defer")

#: Ownership moves one ``run_cluster`` call performs at most; the hot
#: threshold is :func:`~repro.cluster.rebalance.maybe_rebalance`'s own.
MAX_REBALANCES = 4

#: Simulated seconds a deferred request waits before it is re-offered
#: to its shard's queue (the ``"defer"`` admission policy).
DEFER_S = 1e-4


class AdmissionControl:
    """Backpressure policy: bounded per-shard queues with reject/defer."""

    def __init__(
        self,
        max_queue_depth: int = 64,
        policy: str = "reject",
        max_retries: int = 3,
    ) -> None:
        require_count(max_queue_depth, "max_queue_depth")
        require_count(max_retries, "max_retries")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        self.max_queue_depth = max_queue_depth
        self.policy = policy
        self.max_retries = max_retries


class ClientSpec:
    """One load-generating client.

    ``rate_per_s`` is the open-loop arrival rate; ``math.inf`` makes the
    client closed-loop.  Keys are drawn from the canonical ``key_for``
    space: uniformly, or zipfian with ``theta`` skew (rank 0 -- the
    hottest key -- is index 0, so skewed clients deterministically
    concentrate on one region of the ring).
    """

    def __init__(
        self,
        n_ops: int,
        rate_per_s: float,
        key_space: int,
        read_fraction: float = 0.5,
        theta: Optional[float] = None,
        value_size: int = 256,
        seed: int = 1,
    ) -> None:
        require_count(n_ops, "n_ops")
        require_count(key_space, "key_space")
        require_count(value_size, "value_size")
        if not rate_per_s > 0:  # NaN included
            raise ValueError(f"rate must be positive or inf, got {rate_per_s}")
        if key_space <= 0:
            raise ValueError(f"key_space must be positive, got {key_space}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        if theta is not None and not 0.0 < theta < 1.0:  # NaN included
            raise ValueError(f"theta must be None or in (0, 1), got {theta}")
        self.n_ops = n_ops
        self.rate_per_s = rate_per_s
        self.key_space = key_space
        self.read_fraction = read_fraction
        self.theta = theta
        self.value_size = value_size
        self.seed = seed

    @property
    def closed_loop(self) -> bool:
        return math.isinf(self.rate_per_s)


class _Request:
    __slots__ = ("client", "kind", "key", "tag", "arrival", "retries")

    def __init__(self, client: int, kind: str, key: bytes, tag, arrival: float):
        self.client = client
        self.kind = kind
        self.key = key
        self.tag = tag
        self.arrival = arrival
        self.retries = 0


class _ClientState:
    """Deterministic per-client op stream and arrival process.

    The gap, op-kind and key streams are independent forks of the
    client's seed, so each is drawn ahead into a column of at most
    :data:`COLUMN_CHUNK` values, never past the client's ``n_ops``, and
    consumed in order: the values one draw per request would give.
    """

    def __init__(self, index: int, spec: ClientSpec) -> None:
        self.index = index
        self.spec = spec
        self.closed_loop = spec.closed_loop  # math.isinf once, not per request
        self.issued = 0
        rng = XorShiftRng(spec.seed)
        self._gap_rng = rng.fork(1)
        self._op_rng = rng.fork(2)
        key_rng = rng.fork(3)
        if spec.theta is None:
            self._keys = UniformGenerator(spec.key_space, key_rng)
        else:
            self._keys = ZipfianGenerator(spec.key_space, key_rng, spec.theta)
        self._gaps: List[float] = []
        self._gap_at = 0
        self._kinds: List[str] = []
        self._key_column: List[bytes] = []
        self._at = 0

    def _chunk(self) -> int:
        return min(COLUMN_CHUNK, self.spec.n_ops - self.issued)

    def next_gap(self) -> float:
        """The next Poisson inter-arrival gap."""
        at = self._gap_at
        if at == len(self._gaps):
            # An open-loop client draws one gap per request, just before
            # making it, so the gaps still owed are the requests unissued.
            rate = self.spec.rate_per_s
            self._gaps = [
                -math.log(1.0 - u) / rate for u in self._gap_rng.floats(self._chunk())
            ]
            at = 0
        self._gap_at = at + 1
        return self._gaps[at]

    def make_request(self, arrival: float) -> _Request:
        at = self._at
        if at == len(self._kinds):
            n = self._chunk()
            read_fraction = self.spec.read_fraction
            self._kinds = [
                "get" if u < read_fraction else "put" for u in self._op_rng.floats(n)
            ]
            self._key_column = keys_for(self._keys.take(n))
            at = 0
        self._at = at + 1
        tag = (self.index, self.issued)
        self.issued += 1
        return _Request(
            self.index, self._kinds[at], self._key_column[at], tag, arrival
        )


class ClusterRunResult:
    """Outcome of one cluster driving run."""

    def __init__(
        self,
        offered: int,
        completed: int,
        drops: Dict[str, int],
        duration_s: float,
        response: LatencySummary,
        per_shard: List[dict],
        rebalances: List[object],
    ) -> None:
        self.offered = offered
        self.completed = completed
        self.drops = drops
        self.duration_s = duration_s
        self.response = response
        self.per_shard = per_shard
        self.rebalances = rebalances

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())

    @property
    def throughput_kiops(self) -> float:
        """Completed operations per simulated second, in thousands."""
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s / 1e3

    def __repr__(self) -> str:
        return (
            f"ClusterRunResult(completed={self.completed}/{self.offered}, "
            f"dropped={self.dropped}, {self.throughput_kiops:.1f} KIOPS, "
            f"p99={self.response.p99 * 1e6:.1f}us)"
        )


@collector_paused()
def run_cluster(
    router,
    clients: List[ClientSpec],
    admission: Optional[AdmissionControl] = None,
    rebalance_every: int = 0,
    dashboard=None,
    chaos=None,
    sessions: Optional[List] = None,
) -> ClusterRunResult:
    """Drive ``clients`` against ``router``; returns cluster-level metrics.

    ``rebalance_every`` > 0 runs a hot-shard check every that many
    completed requests (see :mod:`repro.cluster.rebalance`); at most
    :data:`MAX_REBALANCES` ownership moves are performed.  Everything --
    arrivals, routing, shedding, migration -- is a pure function of the
    specs' seeds and the cluster's state, so two runs with the same
    inputs produce identical results.

    The loop serves one request per turn: admit every due arrival, pick
    the queue head with the smallest ``(arrival, tag)`` across shards,
    serve it.

    ``dashboard`` is an optional
    :class:`~repro.obs.live.dashboard.LiveDashboard`; it is offered each
    completion time so frames render on simulated-time ticks (one
    ``is None`` check per completion when off).

    ``chaos`` is an optional
    :class:`~repro.replication.chaos.ChaosInjector`; it is offered the
    completed-op count after every completion and may kill or restart
    replicas mid-run.  ``sessions`` is an optional list of
    :class:`~repro.replication.group.Session` tokens, one per client,
    for read-your-writes routing on replicated clusters.

    On a replicated cluster a request whose shard is leaderless with no
    election in flight (the group is below its majority and waiting for
    a restart) is never silently dropped: ``"defer"`` admission retries
    it after ``DEFER_S`` until retries exhaust, and the final verdict is
    the closed-vocabulary ``no_leader`` drop cause.
    """
    if sessions is not None and len(sessions) != len(clients):
        raise ValueError(
            f"sessions must hold one token per client: got {len(sessions)} "
            f"sessions for {len(clients)} clients"
        )
    admission = admission or AdmissionControl()
    cluster = router.cluster
    clock = cluster.clock
    stats = cluster.stats
    n_shards = cluster.n_shards

    states = [_ClientState(i, spec) for i, spec in enumerate(clients)]
    tiebreak = itertools.count()
    heap: List = []
    heappush = heapq.heappush
    start_time = clock.now

    def push(request: _Request, at: Optional[float] = None) -> None:
        """Queue ``request`` for admission at ``at`` (default: its arrival).

        Deferred retries re-enter at a later instant but keep their
        original arrival, so their response time still counts the full
        wait since first arrival.
        """
        when = request.arrival if at is None else at
        heappush(heap, (when, next(tiebreak), request))

    def schedule_next(state: _ClientState, base: float) -> None:
        """Queue the client's next request; open-loop paces off ``base``."""
        if state.issued >= state.spec.n_ops:
            return
        arrival = clock.now if state.closed_loop else base + state.next_gap()
        heappush(heap, (arrival, next(tiebreak), state.make_request(arrival)))

    for state in states:
        schedule_next(state, start_time)

    queues = [deque() for __ in range(n_shards)]
    recorders = [LatencyRecorder() for __ in range(n_shards)]
    # Every shard's summary is read at the end, so its kind may exist early.
    responses = [recorder.appenders("response") for recorder in recorders]
    shard_drops: List[Dict[str, int]] = [dict() for __ in range(n_shards)]
    max_depth = [0] * n_shards
    drops: Dict[str, int] = {}
    completed = 0
    rebalances: List[object] = []
    since_check = 0

    def drop(request: _Request, shard: int, cause: str) -> None:
        drops[cause] = drops.get(cause, 0) + 1
        shard_drops[shard][cause] = shard_drops[shard].get(cause, 0) + 1
        stats.add(f"cluster.drop.{cause}", 1)
        obs = cluster.shards[shard].system.obs
        if obs is not None:
            obs.instant(
                "router",
                "drop",
                CAT_QUEUE,
                {"cause": cause, "client": request.client},
            )
        state = states[request.client]
        if state.closed_loop and state.issued < state.spec.n_ops:
            # The closed-loop client saw the rejection; it retries its
            # *next* op after a short backoff rather than spinning at
            # the same instant.
            push(state.make_request(clock.now + DEFER_S))

    def defer_or_drop(request: _Request, shard: int, cause: str) -> None:
        """Retry ``request`` after ``DEFER_S`` if the policy allows, else shed."""
        if admission.policy == "defer" and request.retries < admission.max_retries:
            request.retries += 1
            stats.add("cluster.deferred", 1)
            push(request, at=clock.now + DEFER_S)
        else:
            drop(request, shard, cause)

    queued = 0  # requests waiting in ``queues``
    # The one non-empty queue while ``queued`` is 1 and its request was
    # admitted into empty queues; -1 when that is not known.
    sole = -1
    route = router._route  # client keys are key_for's: the store validates
    heappop = heapq.heappop
    shards = cluster.shards
    max_queue_depth = admission.max_queue_depth
    while heap or queued:
        if not queued:
            # Idle: jump to the next arrival and apply background work.
            clock.advance_to(heap[0][0])
            cluster.settle_all()

        # Admit every arrival that is due (admission never moves the clock).
        now = clock.now
        while heap and heap[0][0] <= now:
            __, __, request = heappop(heap)
            fresh = request.retries == 0
            shard = route(request.key)
            queue = queues[shard]
            if len(queue) >= max_queue_depth:
                defer_or_drop(
                    request,
                    shard,
                    DROP_RETRY_EXHAUSTED if request.retries else DROP_QUEUE_FULL,
                )
            else:
                queue.append(request)
                sole = shard if not queued else -1
                queued += 1
                depth = len(queue)
                if depth > max_depth[shard]:
                    max_depth[shard] = depth
            if fresh:
                state = states[request.client]
                if not state.closed_loop:
                    schedule_next(state, request.arrival)
        if not queued:
            continue

        # Serve the earliest-admitted request (FIFO across shards).
        if queued == 1 and sole >= 0:
            serve_shard = sole  # the only request waiting
        else:
            serve_shard = -1
            serve_key = None
            for shard_id, queue in enumerate(queues):
                if queue:
                    head = queue[0]
                    key = (head.arrival, head.tag)
                    if serve_key is None or key < serve_key:
                        serve_key = key
                        serve_shard = shard_id
        request = queues[serve_shard].popleft()
        queued -= 1
        sole = -1
        shard = shards[serve_shard]
        group = shard.group
        if (
            group is not None
            and group.leader_idx is None
            and not group.election_pending
        ):
            # Leaderless with no election in flight: the group is below
            # its majority and cannot serve until a restart.  Defer
            # (bounded) or shed with the no_leader cause -- never
            # silently drop.
            defer_or_drop(request, serve_shard, DROP_NO_LEADER)
            continue
        state = states[request.client]
        obs = shard.system.obs
        if obs is not None:
            # Admission-queue wait: arrival (or first defer) to service
            # start.  One span per served request, so per-shard latency
            # attribution can put the queueing component next to the
            # op's own span (emitted right after, by the store).
            obs.span(
                "router",
                request.kind,
                CAT_QUEUE,
                request.arrival,
                clock.now,
                {"client": request.client, "shard": serve_shard},
            )
        session = sessions[request.client] if sessions else None
        if request.kind == "get":
            shard.get(request.key, session)
        else:
            shard.put(
                request.key, SizedValue(request.tag, state.spec.value_size), session
            )
        now = clock.now
        append_time, append_latency = responses[serve_shard]
        append_time(now)
        append_latency(now - request.arrival)
        completed += 1
        if dashboard is not None:
            dashboard.maybe_refresh(now)
        if state.closed_loop:
            schedule_next(state, now)
        if chaos is not None:
            chaos.maybe_fire(completed)

        if rebalance_every > 0:
            since_check += 1
            if since_check >= rebalance_every:
                since_check = 0
                if len(rebalances) < MAX_REBALANCES:
                    moved = maybe_rebalance(router)
                    if moved is not None:
                        rebalances.append(moved)
                router.reset_window()

    duration = clock.now - start_time
    pooled = LatencyRecorder()
    for recorder in recorders:
        pooled.merge_from(recorder)
    per_shard = []
    for shard_id in range(n_shards):
        summary = recorders[shard_id].summary("response")
        per_shard.append(
            {
                "shard": shard_id,
                "ops": summary.count,
                "drops": dict(sorted(shard_drops[shard_id].items())),
                "max_queue_depth": max_depth[shard_id],
                "p50_us": summary.p50 * 1e6,
                "p99_us": summary.p99 * 1e6,
                "p999_us": summary.p999 * 1e6,
            }
        )
    offered = sum(state.issued for state in states)
    return ClusterRunResult(
        offered=offered,
        completed=completed,
        drops=dict(sorted(drops.items())),
        duration_s=duration,
        response=pooled.summary("response"),
        per_shard=per_shard,
        rebalances=rebalances,
    )
