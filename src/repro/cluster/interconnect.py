"""Interconnect model: who is close to whom, and what transfers cost.

The paper's fabric (Intel Omni-Path, non-blocking fat tree) gives
distance-independent node-to-node latency, so *network* transfers
reduce to one class.  Inside a node, however, the machine has tiers —
NUMA domain ⊂ socket ⊂ node — and the cost of a shared-memory access
or atomic depends on which boundary it crosses.  :class:`Interconnect`
classifies any pair of **ranks** into a locality :class:`Tier` using
the job's :class:`~repro.cluster.topology.Placement` and prices
messages, atomics and one-sided transfers accordingly.

The per-tier penalties (:class:`~repro.cluster.costs.MpiCosts`
``remote_numa_*``/``cross_socket_penalty``) default to zero, which
collapses the model back to the seed's two-class (same node vs
network) behaviour bit-exactly.

Historically this class took *node indices* while every caller held
*ranks*; the rank→node mapping now lives here (the class owns the
placement), so callers pass ranks and cannot confuse the two spaces.
All returned times and penalties are in seconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.costs import MpiCosts
from repro.cluster.machine import ClusterSpec
from repro.cluster.topology import Placement


class Tier(enum.IntEnum):
    """Locality class of a rank pair, ordered by distance.

    The integer order is load-bearing: cost penalties accumulate
    outward (``SAME_NUMA <= SAME_SOCKET <= SAME_NODE <= NETWORK`` for
    identical payloads — the monotonicity property the test suite
    pins).
    """

    SAME_NUMA = 0
    SAME_SOCKET = 1
    SAME_NODE = 2
    NETWORK = 3


def tier_between(path_a, path_b) -> Tier:
    """Locality tier of two ``(node, socket, numa)`` machine paths.

    The single owner of the coordinate -> tier cascade: every consumer
    (rank pairs here, the native runner's worker/queue pricing, the
    OpenMP team-span surcharge) classifies through this function so the
    tier ordering cannot desynchronise between cost reports.
    """
    if path_a[0] != path_b[0]:
        return Tier.NETWORK
    if path_a[1] != path_b[1]:
        return Tier.SAME_NODE
    if path_a[2] != path_b[2]:
        return Tier.SAME_SOCKET
    return Tier.SAME_NUMA


@dataclass(frozen=True)
class Interconnect:
    """Answer latency/bandwidth queries for rank pairs of one placement."""

    cluster: ClusterSpec
    costs: MpiCosts
    placement: Placement

    # -- distance classification ---------------------------------------
    def distance(self, rank_a: int, rank_b: int) -> Tier:
        """Locality tier of the pair — symmetric in its arguments."""
        return tier_between(
            self.placement.slots[rank_a], self.placement.slots[rank_b]
        )

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two *ranks* share a node (shared-memory transport)."""
        return self.placement.node_of(rank_a) == self.placement.node_of(rank_b)

    # -- per-tier penalties --------------------------------------------
    def load_penalty(self, rank_a: int, rank_b: int) -> float:
        """Extra per-access cost of a shared load/store between the pair."""
        return self.costs.tier_load_penalty(self.distance(rank_a, rank_b))

    def atomic_penalty(self, rank_a: int, rank_b: int) -> float:
        """Extra per-op cost of an atomic / lock message between the pair."""
        return self.costs.tier_atomic_penalty(self.distance(rank_a, rank_b))

    # -- priced operations ---------------------------------------------
    def message_time(self, rank_a: int, rank_b: int, nbytes: int) -> float:
        """Two-sided message transfer time between two ranks."""
        tier = self.distance(rank_a, rank_b)
        return self.costs.p2p_time(
            nbytes,
            same_node=tier is not Tier.NETWORK,
            network_latency=self.cluster.network_latency,
            network_bandwidth=self.cluster.network_bandwidth,
        ) + self.costs.tier_load_penalty(tier)

    def transfer_time(self, origin: int, target: int, nbytes: int) -> float:
        """One-sided get/put time between two ranks."""
        tier = self.distance(origin, target)
        penalty = self.costs.tier_load_penalty(tier)
        if tier is not Tier.NETWORK:
            return self.costs.rma_transfer_overhead + nbytes / 40e9 + penalty
        return (
            self.costs.rma_transfer_overhead
            + self.cluster.network_latency
            + nbytes / self.cluster.network_bandwidth
            + penalty
        )
