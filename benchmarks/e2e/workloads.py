"""The seven workloads, driven only through the program's public API.

A workload is a function ``build(ctx)`` that does its untimed set-up
(store construction, preload, quiesce) and returns the phases of its
timed region as ``[(phase_name, foreground_ops, fn)]``.  Sizes are
the table in README.md at ``--scale 1.0``; ``ctx.n`` applies the common
scale factor.  ``--seed`` reaches the program only as the ``seed=``
arguments of its public generators (``ctx.sub``).

Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from typing import Callable, Dict, List, Tuple

from repro.bench import BenchScale, make_store
from repro.cluster import ClientSpec, Cluster, ShardRouter, run_cluster
from repro.core import MioDB, MioOptions, recover
from repro.kvstore.values import SizedValue
from repro.mem.system import HybridMemorySystem
from repro.obs.analyze import (
    analysis_json,
    analyze_run,
    attribute_ops,
    conservation_check,
)
from repro.persist.crash import CrashInjector, SimulatedCrash
from repro.replication import ReplicationConfig, run_chaos
from repro.workloads import (
    YCSB_WORKLOADS,
    delete_random,
    fill_random,
    key_for,
    load_phase,
    overwrite,
    read_random,
    run_workload,
    seek_random,
)

KB = 1 << 10
MB = 1 << 20
VALUE = 1 * KB
BATCH = 256
MIO_SCALE = BenchScale(memtable_bytes=256 * KB, value_size=VALUE)
BASELINE_SCALE = BenchScale(
    memtable_bytes=128 * KB, value_size=VALUE, nvm_buffer_bytes=4 * MB
)
BASELINES = ("leveldb", "novelsm", "matrixkv", "slmdb", "novelsm-nosst")
SHARDS = 4
CLIENTS = 4

Phases = List[Tuple[str, int, Callable[[], object]]]


class Ctx:
    """What one child run hands a workload.

    ``wrap`` is the identity in the timed rounds and a forwarding proxy
    in the traced, verify and self-test runs.  The workload registers
    what the model counts and the verify pass need: every simulated
    machine it built, its cluster and router, its recorders and its
    run results.
    """

    def __init__(self, seed: int, scale: float, wrap: Callable) -> None:
        self.seed = seed
        self.scale = scale
        self.wrap = wrap
        self.systems: List[HybridMemorySystem] = []
        self.stores: list = []
        self.cluster = None
        self.router = None
        self.recorders: list = []
        self.cluster_results: list = []
        #: Simulated time at the end of each obs-trace stream.
        self.stream_clocks: List[float] = []
        #: Verify-only checks a workload made itself, and those that failed.
        self.checked = 0
        self.failures: List[str] = []

    def n(self, size: int) -> int:
        """``size`` under the common scale factor (never below 64)."""
        return max(64, int(size * self.scale))

    def sub(self, stream: int) -> int:
        """The seed for one of the program's generators."""
        return self.seed * 1000 + stream

    def store(self, name: str, scale: BenchScale):
        """A fresh store on its own machine, wrapped for this run."""
        inner, system = make_store(name, scale)
        self.systems.append(system)
        self.stores.append(inner)
        return self.wrap(inner)

    def require(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)


# ------------------------------------------------------------ store-*


def store_write(ctx: Ctx) -> Phases:
    store = ctx.store("miodb", MIO_SCALE)
    n = ctx.n(65536)
    return [
        ("fill", n, lambda: fill_random(
            store, n, VALUE, seed=ctx.sub(1), batch_size=BATCH)),
        ("overwrite", n, lambda: overwrite(
            store, n, n, VALUE, seed=ctx.sub(3), batch_size=BATCH)),
        ("delete", n // 4, lambda: delete_random(
            store, n // 4, n, seed=ctx.sub(4), batch_size=BATCH)),
        ("quiesce", 0, store.quiesce),
    ]


def _preloaded(ctx: Ctx):
    """MioDB with MemTable, PMTable levels (+ blooms) and repository all
    populated: fill, quiesce, then an overwrite left unquiesced."""
    store = ctx.store("miodb", MIO_SCALE)
    n = ctx.n(65536)
    fill_random(store, n, VALUE, seed=ctx.sub(1), batch_size=BATCH)
    store.quiesce()
    overwrite(store, n // 4, n, VALUE, seed=ctx.sub(3), batch_size=BATCH)
    return store, n


def store_get(ctx: Ctx) -> Phases:
    store, n = _preloaded(ctx)
    reads = ctx.n(262144)
    return [
        ("readrandom", reads, lambda: read_random(
            store, reads, n, seed=ctx.sub(2), batch_size=BATCH)),
        ("ycsb-c", reads, lambda: run_workload(
            store, YCSB_WORKLOADS["C"], reads, n, VALUE, seed=ctx.sub(23),
            check_reads=True, batch_size=BATCH)),
    ]


def store_scan(ctx: Ctx) -> Phases:
    store, n = _preloaded(ctx)
    seeks = ctx.n(49152)
    ycsb = ctx.n(16384)
    return [
        ("seek", seeks, lambda: seek_random(
            store, seeks, n, scan_length=20, seed=ctx.sub(5))),
        ("ycsb-e", ycsb, lambda: run_workload(
            store, YCSB_WORKLOADS["E"], ycsb, n, VALUE, seed=ctx.sub(23))),
    ]


# ----------------------------------------------------- baselines-ycsb


def baselines_ycsb(ctx: Ctx) -> Phases:
    # Per-op (batch_size=None): the path the figure suite drives.
    load = ctx.n(12288)
    ycsb_a = ctx.n(8192)
    ycsb_e = ctx.n(512)
    phases: Phases = []
    for name in BASELINES:
        store = ctx.store(name, BASELINE_SCALE)
        phases += [
            ("load", load, lambda s=store: load_phase(
                s, load, VALUE, seed=ctx.sub(11))),
            ("ycsb-a", ycsb_a, lambda s=store: run_workload(
                s, YCSB_WORKLOADS["A"], ycsb_a, load, VALUE,
                seed=ctx.sub(23), check_reads=True)),
            ("ycsb-e", ycsb_e, lambda s=store: run_workload(
                s, YCSB_WORKLOADS["E"], ycsb_e, load, VALUE,
                seed=ctx.sub(29))),
        ]
    return phases


# ---------------------------------------------------------- cluster-*


def _cluster(ctx: Ctx, replication, ops_per_client: int) -> Phases:
    cluster = Cluster(
        "miodb", n_shards=SHARDS, scale=MIO_SCALE, replication=replication
    )
    ctx.cluster = cluster
    for shard in cluster.shards:
        # run_cluster serves through shard.group / shard.store, below the
        # router, so that is where the proxy has to sit.
        if shard.group is not None:
            ctx.systems += [member.system for member in shard.group.members]
            ctx.stores += [member.store for member in shard.group.members]
            shard.group = ctx.wrap(shard.group)
        else:
            ctx.systems.append(shard.system)
            ctx.stores.append(shard.store)
            shard.store = ctx.wrap(shard.store)
    router = ctx.router = ShardRouter(cluster)
    key_space = ctx.n(32768)
    for i in range(key_space):
        router.put(key_for(i), SizedValue(i, VALUE))
    router.quiesce()
    router.reset_window()
    n_ops = ctx.n(ops_per_client)
    clients = [
        # Open loop in simulated time: Poisson arrivals at 10 000/s each.
        ClientSpec(
            n_ops=n_ops, rate_per_s=10000.0, key_space=key_space,
            read_fraction=0.5, theta=0.99, value_size=VALUE,
            seed=ctx.sub(17 + i),
        )
        for i in range(CLIENTS)
    ]

    def run() -> None:
        ctx.cluster_results.append(run_cluster(router, clients))

    # Every op offered counts; one the admission queue sheds is a failure.
    return [("run-cluster", CLIENTS * n_ops, run), ("quiesce", 0, router.quiesce)]


def cluster_k0(ctx: Ctx) -> Phases:
    return _cluster(ctx, None, 25000)


def cluster_k2(ctx: Ctx) -> Phases:
    # Quorum acks and leader reads are ReplicationConfig's defaults.
    return _cluster(ctx, ReplicationConfig(followers=2), 20000)


# ---------------------------------------------------------- obs-trace


def _obs_stream(ctx: Ctx, store) -> None:
    """The op stream the traced, live and plain obs-trace runs share."""
    n = ctx.n(32768)
    fill_random(store, n, VALUE, seed=ctx.sub(1), batch_size=BATCH)
    read_random(store, n // 2, n, seed=ctx.sub(2), batch_size=BATCH)
    ctx.stream_clocks.append(store.quiesce())


def obs_trace(ctx: Ctx) -> Phases:
    traced_store = ctx.store("miodb", MIO_SCALE)
    live_store = ctx.store("miodb", MIO_SCALE)
    traced_system, live_system = ctx.systems[-2:]

    ops = ctx.n(32768) + ctx.n(32768) // 2

    def traced() -> None:
        recorder = traced_system.attach_tracing()
        ctx.recorders.append(recorder)
        _obs_stream(ctx, traced_store)
        recorder.detach()

    def analyze() -> str:
        return analysis_json(analyze_run(ctx.recorders[0], traced_system, "miodb"))

    def live() -> None:
        recorder = live_system.attach_live(seed=ctx.sub(7))
        ctx.recorders.append(recorder)
        _obs_stream(ctx, live_store)
        recorder.detach()

    return [("traced", ops, traced), ("analyze", 0, analyze), ("live", ops, live)]


# ------------------------------------------------- verify-only checks
#
# Run after the phases of a verify pass, on top of the checks every
# workload gets in child.py (reads and scans against the dict model,
# final items() of every store and of the router).


def _check_durability(ctx: Ctx) -> None:
    """Crash MioDB mid-load, recover, read back every acknowledged key."""
    n = ctx.n(65536)
    injector = CrashInjector()
    injector.arm("put.after_wal", after_hits=max(2, n // 2))
    options = MioOptions(
        memtable_bytes=MIO_SCALE.memtable_bytes,
        sstable_bytes=MIO_SCALE.memtable_bytes,
    )
    store = MioDB(HybridMemorySystem(), options, crash_injector=injector)
    acked: Dict[bytes, SizedValue] = {}
    try:
        for i in range(n):
            value = SizedValue(("dur", i), VALUE)
            store.put(key_for((i * 7919) % n), value)
            acked[key_for((i * 7919) % n)] = value
    except SimulatedCrash:
        pass
    ctx.require(len(acked) == max(2, n // 2) - 1, "crash point did not fire mid-load")
    recovered, __ = recover(store)
    lost = sum(1 for key, value in acked.items() if recovered.get(key)[0] != value)
    ctx.checked += len(acked)
    if lost:
        ctx.failures.append(f"{lost}/{len(acked)} acknowledged writes lost by recover()")


def _check_replicas(ctx: Ctx) -> None:
    """Followers converge on the leader; one chaos seed audits clean."""
    for shard in ctx.cluster.shards:
        group = shard.group
        group.catch_up()
        ctx.cluster.quiesce()
        leader_state = dict(group.items())
        for follower in group.alive_followers():
            ctx.require(
                dict(follower.store.items()) == leader_state,
                f"group {group.group_id} follower {follower.replica_id} diverged",
            )
    ctx.require(
        ctx.cluster.stats.get("repl.acked_lost") == 0.0, "acked writes lost"
    )
    report = run_chaos("miodb", seed=ctx.sub(31), scale=MIO_SCALE)
    for check, ok in report["checks"].items():
        ctx.require(ok, f"chaos seed {ctx.sub(31)}: {check} failed")
    ctx.require(len(report["fired"]) > 0, "chaos schedule fired no kill")


def _check_obs(ctx: Ctx) -> None:
    """Attribution conserves exactly; tracing adds zero simulated time."""
    check = conservation_check(attribute_ops(ctx.recorders[0]))
    ctx.require(check["exact"] and check["ops"] > 0, f"conservation: {check}")
    plain, __ = make_store("miodb", MIO_SCALE)
    _obs_stream(ctx, plain)
    clocks = ctx.stream_clocks
    ctx.require(
        len(clocks) == 3 and len(set(clocks)) == 1,
        f"traced/live/plain clocks differ: {clocks}",
    )


WORKLOADS: Dict[str, Callable[[Ctx], Phases]] = {
    "store-write": store_write,
    "store-get": store_get,
    "store-scan": store_scan,
    "baselines-ycsb": baselines_ycsb,
    "cluster-k0": cluster_k0,
    "cluster-k2": cluster_k2,
    "obs-trace": obs_trace,
}

EXTRA_CHECKS: Dict[str, Callable[[Ctx], None]] = {
    "store-write": _check_durability,
    "cluster-k2": _check_replicas,
    "obs-trace": _check_obs,
}
