"""Op paths allocate no reference cycles, so pausing the collector is safe.

``repro.sim.host.collector_paused`` turns automatic cycle collection off
while the simulator drives an op stream (``Phase``, ``run_open_loop``,
``run_cluster``, ``Executor.drain``, ``drain_all``).  That is free only
while every object an op frees is freed by reference counting; the gate
below runs each store's full op stream, a replicated cluster, and the
traced and live streams with the collector off and asserts that a full
collection afterwards finds nothing.  A cluster or store dropped after
its scope is cyclic garbage and is collected as usual: teardown is out
of the gate's scope, so each stream holds what it built.
"""

import gc
import math
from contextlib import contextmanager

import pytest

from repro.bench import STORE_NAMES, make_store
from repro.bench.config import BenchScale
from repro.cluster import ClientSpec, Cluster, ShardRouter, run_cluster
from repro.kvstore.values import SizedValue
from repro.replication import ReplicationConfig
from repro.sim.executor import Executor, drain_all
from repro.sim.host import collector_paused
from repro.workloads import (
    YCSB_WORKLOADS,
    delete_random,
    fill_random,
    key_for,
    overwrite,
    read_random,
    run_workload,
    seek_random,
)
from repro.workloads.openloop import run_open_loop
from repro.workloads.runner import Phase

KB = 1 << 10
VALUE = 256
SCALE = BenchScale(
    memtable_bytes=8 * KB, dataset_bytes=1 << 20, value_size=VALUE,
    nvm_buffer_bytes=64 * KB,
)
N = 600


@pytest.fixture(autouse=True)
def collector_on():
    """Every test starts with the collector on and leaves it on."""
    gc.enable()
    yield
    gc.enable()


@contextmanager
def no_cyclic_garbage():
    """Run the block with the collector off; fail if it left cycles behind."""
    gc.collect()
    gc.disable()
    try:
        yield
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"the op stream left {found} objects in reference cycles"


def op_stream(store, batch_size) -> None:
    """Fill, overwrite, point reads, delete, scans, a YCSB mix, quiesce."""
    fill_random(store, N, VALUE, seed=1, batch_size=batch_size)
    overwrite(store, N, N, VALUE, seed=2, batch_size=batch_size)
    read_random(store, N, N, seed=4, batch_size=batch_size)
    delete_random(store, N // 4, N, seed=3, batch_size=batch_size)
    seek_random(store, 50, N, scan_length=10, seed=5)
    run_workload(store, YCSB_WORKLOADS["A"], 200, N, VALUE, seed=6,
                 batch_size=batch_size)
    run_workload(store, YCSB_WORKLOADS["E"], 20, N, VALUE, seed=7)
    store.quiesce()


# ------------------------------------------------------------------ gate


@pytest.mark.parametrize("batch_size", [None, 37])
@pytest.mark.parametrize("name", STORE_NAMES)
def test_store_op_stream_leaves_no_cycles(name, batch_size):
    store, system = make_store(name, SCALE)
    with no_cyclic_garbage():
        op_stream(store, batch_size)
    # NoveLSM-NoSST's one skip list never flushes; every other store
    # flushed and compacted inside the gate.
    assert system.stats.get("compact.count") > 0 or name == "novelsm-nosst"


def test_replicated_cluster_run_leaves_no_cycles():
    cluster = Cluster(
        "miodb", n_shards=4, scale=SCALE,
        replication=ReplicationConfig(followers=2),
    )
    router = ShardRouter(cluster)
    clients = [
        ClientSpec(n_ops=300, rate_per_s=rate, key_space=N, read_fraction=0.5,
                   value_size=VALUE, seed=11 + i)
        for i, rate in enumerate((math.inf, 20000.0))
    ]
    with no_cyclic_garbage():
        for i in range(N):
            router.put(key_for(i), SizedValue(i, VALUE))
        router.quiesce()
        result = run_cluster(router, clients)
        router.quiesce()
    assert result.completed == 600
    assert cluster.stats.get("repl.shipped_records") > 0


@pytest.mark.parametrize("mode", ["traced", "live"])
def test_observed_op_stream_leaves_no_cycles(mode):
    store, system = make_store("miodb", SCALE)
    with no_cyclic_garbage():
        if mode == "traced":
            recorder = system.attach_tracing()
        else:
            recorder = system.attach_live(seed=3)
        op_stream(store, 37)
        recorder.detach()
    assert recorder.events


# ----------------------------------------------------------------- scope


def test_scope_restores_the_collector_on_exit_and_on_error():
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("op failed")
    assert gc.isenabled()


def test_scopes_nest():
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_collector_that_was_off_stays_off():
    gc.disable()
    with collector_paused():
        pass
    assert not gc.isenabled()
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("op failed")
    assert not gc.isenabled()


def test_op_drivers_pause_and_per_op_calls_do_not():
    """The five entry points pause the collector; a bare put does not."""
    store, system = make_store("miodb", SCALE)
    seen = {}

    def probe(where):
        return lambda *args: seen.setdefault(where, gc.isenabled())

    with Phase("probe", system):
        probe("phase")()
    assert gc.isenabled()

    run_open_loop(store, probe("open_loop"), 1, 1000.0)

    executor = Executor(system.clock)
    executor.submit(executor.worker("w"), 1.0, probe("drain"))
    executor.drain()
    executor.submit(executor.worker("w"), 1.0, probe("drain_all"))
    drain_all([executor])

    class Dashboard:
        maybe_refresh = staticmethod(probe("run_cluster"))

    router = ShardRouter(Cluster("miodb", n_shards=2, scale=SCALE))
    run_cluster(router, [ClientSpec(n_ops=1, rate_per_s=math.inf, key_space=8)],
                dashboard=Dashboard())

    system.executor.submit(system.executor.worker("w"), 0.0, probe("put"))
    store.put(key_for(0), SizedValue(0, VALUE))
    assert seen == {
        "phase": False, "open_loop": False, "drain": False,
        "drain_all": False, "run_cluster": False, "put": True,
    }
    assert gc.isenabled()
