"""Hardware description: nodes, cores, and whole clusters.

Conventions: network latency is in seconds and bandwidth in
bytes/second; ``core_speed`` is a dimensionless multiplier (1.0 =
nominal).  Everything here is indexed by *node index* and *core index
within the node* — MPI ranks do not exist at this layer; the
rank -> (node, socket, numa, core) mapping is
:class:`repro.cluster.topology.Placement`'s job.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class NodeSpec:
    """A single shared-memory compute node.

    Parameters
    ----------
    cores:
        Number of physical cores usable by workers.
    core_speed:
        Relative speed multiplier of this node's cores (1.0 = nominal).
        A workload iteration with nominal cost ``c`` takes ``c /
        (core_speed * per-core factor)`` seconds here.
    sockets:
        Number of CPU sockets; cores are split evenly across them, so
        ``cores`` must be a multiple of ``sockets``.  The socket tier
        sits between node and core for three-level scheduling stacks
        (``X+Y+Z``); the default of 1 reproduces the paper's two-tier
        machine model.
    numa_per_socket:
        NUMA domains *within each socket* (sub-NUMA clustering /
        cluster-on-die).  A socket and a NUMA domain are distinct
        tiers: a dual-socket node has two NUMA domains even without
        sub-NUMA clustering, and modern Xeons expose 2-4 NUMA domains
        per socket.  Each socket's cores split evenly across its NUMA
        domains, giving the 4th machine tier for depth-4 scheduling
        stacks (``W+X+Y+Z``).  The default of 1 keeps every socket a
        single NUMA domain (bit-exact with the pre-NUMA model).
    name:
        Diagnostic label.
    """

    cores: int
    core_speed: float = 1.0
    sockets: int = 1
    numa_per_socket: int = 1
    name: str = "node"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"node must have >= 1 core, got {self.cores}")
        if self.core_speed <= 0:
            raise ValueError(f"core_speed must be > 0, got {self.core_speed}")
        if self.sockets < 1:
            raise ValueError(f"node must have >= 1 socket, got {self.sockets}")
        if self.cores % self.sockets != 0:
            raise ValueError(
                f"{self.cores} cores do not split evenly over "
                f"{self.sockets} sockets"
            )
        if self.numa_per_socket < 1:
            raise ValueError(
                f"node must have >= 1 NUMA domain per socket, "
                f"got {self.numa_per_socket}"
            )
        if self.cores_per_socket % self.numa_per_socket != 0:
            raise ValueError(
                f"{self.cores_per_socket} cores per socket do not split "
                f"evenly over {self.numa_per_socket} NUMA domains"
            )

    @property
    def cores_per_socket(self) -> int:
        """Cores in one socket (cores are numbered socket-contiguously)."""
        return self.cores // self.sockets

    @property
    def cores_per_numa(self) -> int:
        """Cores in one NUMA domain (numbered NUMA-contiguously)."""
        return self.cores_per_socket // self.numa_per_socket

    @property
    def numa_domains(self) -> int:
        """Total NUMA domains on the node (sockets x numa_per_socket)."""
        return self.sockets * self.numa_per_socket

    def socket_of_core(self, core: int) -> int:
        """Socket housing ``core`` (cores are numbered socket-contiguously)."""
        if not 0 <= core < self.cores:
            raise ValueError(f"core {core} outside node of {self.cores} cores")
        return core // self.cores_per_socket

    def numa_of_core(self, core: int) -> int:
        """NUMA domain housing ``core``, *within its socket*.

        Cores are numbered NUMA-contiguously inside each socket, so the
        cores of socket ``s`` split into ``numa_per_socket`` consecutive
        runs of ``cores_per_numa`` cores each.
        """
        if not 0 <= core < self.cores:
            raise ValueError(f"core {core} outside node of {self.cores} cores")
        return (core % self.cores_per_socket) // self.cores_per_numa


@dataclass(frozen=True)
class ClusterSpec:
    """A distributed-memory cluster: a sequence of nodes plus a fabric.

    The paper's evaluation uses homogeneous nodes; heterogeneous
    clusters are supported because several of the implemented DLS
    techniques (WF, AWF-*) only make sense with per-PE weights.
    """

    nodes: Tuple[NodeSpec, ...]
    #: one-way network latency between any two distinct nodes (seconds);
    #: non-blocking fat tree => distance-independent.
    network_latency: float = 1.1e-6
    #: point-to-point bandwidth (bytes/second).
    network_bandwidth: float = 12.5e9
    name: str = "cluster"

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        if self.network_latency < 0 or self.network_bandwidth <= 0:
            raise ValueError("invalid network parameters")

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        """Total worker cores across all nodes."""
        return sum(node.cores for node in self.nodes)

    @property
    def sockets_per_node(self) -> int:
        """Common socket count, for uniform clusters.

        Raises on mixed-socket clusters — iterate ``nodes`` there.
        """
        counts = {node.sockets for node in self.nodes}
        if len(counts) != 1:
            raise ValueError(
                f"cluster has mixed socket counts {sorted(counts)}; "
                "read NodeSpec.sockets per node"
            )
        return counts.pop()

    @property
    def cores_per_socket(self) -> int:
        """Common cores-per-socket, for uniform clusters (raises on mixed)."""
        counts = {node.cores_per_socket for node in self.nodes}
        if len(counts) != 1:
            raise ValueError(
                f"cluster has mixed cores-per-socket {sorted(counts)}; "
                "read NodeSpec.cores_per_socket per node"
            )
        return counts.pop()

    @property
    def numa_per_socket(self) -> int:
        """Common NUMA-domains-per-socket, for uniform clusters (raises
        on mixed)."""
        counts = {node.numa_per_socket for node in self.nodes}
        if len(counts) != 1:
            raise ValueError(
                f"cluster has mixed NUMA-per-socket counts {sorted(counts)}; "
                "read NodeSpec.numa_per_socket per node"
            )
        return counts.pop()

    def node_of(self, index: int) -> NodeSpec:
        """The :class:`NodeSpec` at *node index* ``index`` (not a rank)."""
        return self.nodes[index]

    def core_speeds(self) -> np.ndarray:
        """Vector of core speeds, in node order, one entry per core."""
        return np.concatenate(
            [np.full(node.cores, node.core_speed) for node in self.nodes]
        )

    def subset(self, n_nodes: int) -> "ClusterSpec":
        """A cluster made of the first ``n_nodes`` nodes (for scaling sweeps)."""
        if not 1 <= n_nodes <= self.n_nodes:
            raise ValueError(f"cannot take {n_nodes} of {self.n_nodes} nodes")
        return ClusterSpec(
            nodes=self.nodes[:n_nodes],
            network_latency=self.network_latency,
            network_bandwidth=self.network_bandwidth,
            name=f"{self.name}[{n_nodes}]",
        )


def homogeneous(
    n_nodes: int,
    cores_per_node: int,
    core_speed: float = 1.0,
    network_latency: float = 1.1e-6,
    network_bandwidth: float = 12.5e9,
    name: str = "cluster",
    sockets_per_node: int = 1,
    numa_per_socket: int = 1,
) -> ClusterSpec:
    """Build a homogeneous cluster spec."""
    nodes = tuple(
        NodeSpec(
            cores=cores_per_node,
            core_speed=core_speed,
            sockets=sockets_per_node,
            numa_per_socket=numa_per_socket,
            name=f"{name}-n{i}",
        )
        for i in range(n_nodes)
    )
    return ClusterSpec(
        nodes=nodes,
        network_latency=network_latency,
        network_bandwidth=network_bandwidth,
        name=name,
    )


@functools.lru_cache(maxsize=64, typed=True)
def minihpc(
    n_nodes: int = 16,
    cores_per_node: int = 16,
    sockets_per_node: int = 1,
    numa_per_socket: int = 1,
) -> ClusterSpec:
    """The paper's testbed slice: up to 16 identical Xeon nodes.

    miniHPC nodes have 20 cores, but the evaluation runs 16 workers per
    node (16 MPI processes for MPI+MPI, 16 OpenMP threads for
    MPI+OpenMP), so the default model exposes 16 worker cores.  The
    Omni-Path fabric is modelled as 1.1 us / 100 Gbit/s, distance
    independent (non-blocking fat tree).

    The physical nodes are dual-socket Xeon E5-2640v4; pass
    ``sockets_per_node=2`` to expose that tier for three-level
    scheduling stacks, and ``numa_per_socket=2`` to additionally model
    sub-NUMA clustering (the 4th machine tier, for depth-4 ``W+X+Y+Z``
    stacks).  The defaults of 1 keep the paper's flat node model (and
    the seed's exact behaviour) for two-level runs.

    Memoised: equal arguments return the same (frozen) spec, so repeat
    sweeps over one figure build no node specs and key their cells
    without touching them.
    """
    if not 1 <= n_nodes <= 16:
        raise ValueError("miniHPC has at most 16 identical Xeon nodes")
    return homogeneous(
        n_nodes=n_nodes,
        cores_per_node=cores_per_node,
        network_latency=1.1e-6,
        network_bandwidth=12.5e9,
        name="miniHPC",
        sockets_per_node=sockets_per_node,
        numa_per_socket=numa_per_socket,
    )


def heterogeneous(
    core_counts: Sequence[int],
    core_speeds: Optional[Sequence[float]] = None,
    network_latency: float = 1.1e-6,
    network_bandwidth: float = 12.5e9,
    name: str = "hetero",
    socket_counts: Optional[Sequence[int]] = None,
    numa_counts: Optional[Sequence[int]] = None,
) -> ClusterSpec:
    """Build a heterogeneous cluster (used by WF/AWF tests and examples).

    ``numa_counts`` gives each node's NUMA-domains-per-socket (default 1
    everywhere, the flat pre-NUMA model).
    """
    if core_speeds is None:
        core_speeds = [1.0] * len(core_counts)
    if len(core_speeds) != len(core_counts):
        raise ValueError("core_counts and core_speeds must have equal length")
    if socket_counts is None:
        socket_counts = [1] * len(core_counts)
    if len(socket_counts) != len(core_counts):
        raise ValueError("core_counts and socket_counts must have equal length")
    if numa_counts is None:
        numa_counts = [1] * len(core_counts)
    if len(numa_counts) != len(core_counts):
        raise ValueError("core_counts and numa_counts must have equal length")
    nodes = tuple(
        NodeSpec(
            cores=c, core_speed=s, sockets=k, numa_per_socket=m,
            name=f"{name}-n{i}",
        )
        for i, (c, s, k, m) in enumerate(
            zip(core_counts, core_speeds, socket_counts, numa_counts)
        )
    )
    return ClusterSpec(
        nodes=nodes,
        network_latency=network_latency,
        network_bandwidth=network_bandwidth,
        name=name,
    )
