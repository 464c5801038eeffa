"""Configuration for replica groups.

One :class:`ReplicationConfig` describes a group's shape (leader + K
followers), its durability contract (ack policy), its read routing
(read policy).  The simulated link the WAL ships over is fixed:
``REPL_LINK_PROFILE``, read by :mod:`repro.replication.group`.
"""

from repro.kvstore.api import require_count

#: When is a write acknowledged back to the client?
ACK_LEADER = "leader"      #: leader WAL append alone (fastest, weakest)
ACK_QUORUM = "quorum"      #: a majority of the group holds it durably
ACK_ALL = "all"            #: every live follower holds it durably

ACK_POLICIES = (ACK_LEADER, ACK_QUORUM, ACK_ALL)

#: Where do reads go?
READ_LEADER = "leader"                    #: always the leader (linearizable)
READ_FOLLOWER_EVENTUAL = "follower-eventual"  #: round-robin followers, may lag
READ_FOLLOWER_RYW = "follower-ryw"        #: followers, but never behind the
#: session's own writes (blocks until the follower's applied LSN covers
#: the session's last acknowledged write).

READ_POLICIES = (READ_LEADER, READ_FOLLOWER_EVENTUAL, READ_FOLLOWER_RYW)

#: Simulated seconds a failover election takes (detection + vote),
#: serialized after the winner's pending tail replay.
ELECTION_TIMEOUT_S = 200e-6


class ReplicationConfig:
    """Shape and policies of one replica group.

    Attributes:
        followers: K follower replicas per group (0 = unreplicated).
        ack_policy: one of :data:`ACK_POLICIES`.
        read_policy: one of :data:`READ_POLICIES`.
    """

    __slots__ = ("followers", "ack_policy", "read_policy")

    def __init__(
        self,
        followers: int = 2,
        ack_policy: str = ACK_QUORUM,
        read_policy: str = READ_LEADER,
    ) -> None:
        require_count(followers, "followers")
        if ack_policy not in ACK_POLICIES:
            raise ValueError(
                f"unknown ack policy {ack_policy!r}; choose from {ACK_POLICIES}"
            )
        if read_policy not in READ_POLICIES:
            raise ValueError(
                f"unknown read policy {read_policy!r}; "
                f"choose from {READ_POLICIES}"
            )
        self.followers = followers
        self.ack_policy = ack_policy
        self.read_policy = read_policy

    @property
    def group_size(self) -> int:
        """Members per group (leader + followers)."""
        return self.followers + 1

    @property
    def quorum_size(self) -> int:
        """Majority of the group (election gate; quorum-ack threshold)."""
        return self.group_size // 2 + 1

    def needed_follower_acks(self) -> int:
        """Followers that must hold a write durably before it acks."""
        if self.ack_policy == ACK_LEADER:
            return 0
        if self.ack_policy == ACK_QUORUM:
            return self.quorum_size - 1
        return self.followers

    def __repr__(self) -> str:
        return (
            f"ReplicationConfig(K={self.followers}, ack={self.ack_policy}, "
            f"read={self.read_policy})"
        )
