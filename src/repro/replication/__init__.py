"""Replication & failover: replica groups, WAL shipping, chaos harness.

See ``docs/replication.md`` for the model: one leader + K followers per
shard, simulated WAL shipping over per-follower link devices, ack and
read policies, deterministic failover elections, and the seeded chaos
harness that audits state equivalence after kill/restart schedules.
"""

from repro.replication.chaos import (
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    run_chaos,
)
from repro.replication.config import (
    ACK_ALL,
    ACK_LEADER,
    ACK_POLICIES,
    ACK_QUORUM,
    READ_FOLLOWER_EVENTUAL,
    READ_FOLLOWER_RYW,
    READ_LEADER,
    READ_POLICIES,
    ReplicationConfig,
)
from repro.replication.group import Replica, ReplicaGroup, Session

__all__ = [
    "ACK_ALL",
    "ACK_LEADER",
    "ACK_POLICIES",
    "ACK_QUORUM",
    "READ_FOLLOWER_EVENTUAL",
    "READ_FOLLOWER_RYW",
    "READ_LEADER",
    "READ_POLICIES",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosSchedule",
    "Replica",
    "ReplicaGroup",
    "ReplicationConfig",
    "Session",
    "run_chaos",
]
