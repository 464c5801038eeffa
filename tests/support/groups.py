"""Standalone replica groups, outside any cluster."""

from repro.bench.factory import make_store
from repro.mem.system import HybridMemorySystem
from repro.replication.group import ReplicaGroup
from repro.sim.clock import SimClock


def build_group(store_name: str, scale=None, config=None, crash_injector=None):
    """A group (id 0) of ``store_name`` stores on one clock.

    ``crash_injector`` replaces the group's passive injector, so a test
    can arm the ``repl.*`` crash points.
    """
    clock = SimClock()

    def factory(rid: int):
        return make_store(store_name, scale, system=HybridMemorySystem(clock=clock))

    group = ReplicaGroup(0, factory, config)
    if crash_injector is not None:
        group.crash = crash_injector
    return group
