"""Process placement: mapping MPI ranks to (node, socket, numa, core) slots.

The paper's two execution models place processes differently:

* **MPI+MPI** — ``ppn`` MPI processes per node (16 in the evaluation),
  rank-ordered block placement, one process per core.
* **MPI+OpenMP** — one MPI process per node; its OpenMP threads occupy
  the node's cores.

Both are expressed through :func:`block_placement`, which is the only
placement policy the reproduction needs; round-robin placement is
provided for completeness and ablations.

Every slot carries the full machine path ``(node, socket, numa, core)``.
Cores are numbered socket- and NUMA-contiguously (cores ``[s*cps,
(s+1)*cps)`` belong to socket ``s``, and within a socket consecutive
runs of ``cores_per_numa`` cores share a NUMA domain), so block
placement fills socket 0 before socket 1 — and NUMA domain 0 before
NUMA domain 1 within each socket — and never splits a tier group
between two non-adjacent rank ranges; consecutive ranks share sockets
and NUMA domains exactly as ``--map-by core`` binds them on real
hardware.  Multi-level scheduling stacks (node -> socket -> numa ->
core) group ranks through :meth:`Placement.socket_of` /
:meth:`Placement.ranks_on_socket` and the NUMA analogues
:meth:`Placement.numa_of` / :meth:`Placement.ranks_on_numa`.

Conventions: every query here takes or returns **MPI ranks** and
machine coordinates (node index, socket within node, NUMA domain
within socket, core within node); nothing in this module is a time —
costs (in seconds) live in :mod:`repro.cluster.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.machine import ClusterSpec


@dataclass(frozen=True)
class Placement:
    """Immutable rank -> (node, socket, numa, core) mapping.

    ``socket`` is the socket *within the node*, ``numa`` the NUMA
    domain *within the socket*, and ``core`` the core *within the node*
    (not within the socket or NUMA domain), so existing ``(node,
    core)`` consumers are unaffected by the deeper tiers.
    """

    cluster: ClusterSpec
    #: slots[rank] == (node_index, socket_index, numa_index_within_socket,
    #: core_index_within_node)
    slots: Tuple[Tuple[int, int, int, int], ...]

    @property
    def size(self) -> int:
        """Number of placed ranks (the world size)."""
        return len(self.slots)

    def _tier_index(self):
        """Rank groups per tier, built once in O(ranks).

        Every group query used to rescan ``slots`` (O(ranks) per call),
        which made constructing an ``MpiWorld`` — one ``local_rank`` /
        ``socket_rank`` / ``numa_rank`` triple per rank — quadratic in
        the world size and the dominant cost at 10^4-10^6 ranks.  The
        index maps each tier coordinate to its sorted rank list plus
        each rank to its position inside its own group, so the public
        queries return exactly what the scans returned, in O(group) or
        O(1).
        """
        cache = self.__dict__.get("_tier_cache")
        if cache is None:
            by_node: dict = {}
            by_socket: dict = {}
            by_numa: dict = {}
            for rank, (n, s, m, _) in enumerate(self.slots):
                by_node.setdefault(n, []).append(rank)
                by_socket.setdefault((n, s), []).append(rank)
                by_numa.setdefault((n, s, m), []).append(rank)
            pos = {
                "node": {}, "socket": {}, "numa": {},
            }
            for groups, key in (
                (by_node, "node"), (by_socket, "socket"), (by_numa, "numa")
            ):
                table = pos[key]
                for members in groups.values():
                    for index, rank in enumerate(members):
                        table[rank] = index
            cache = (by_node, by_socket, by_numa, pos)
            object.__setattr__(self, "_tier_cache", cache)
        return cache

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        return self.slots[rank][0]

    def socket_of(self, rank: int) -> int:
        """Socket (within its node) that ``rank``'s core belongs to."""
        return self.slots[rank][1]

    def numa_of(self, rank: int) -> int:
        """NUMA domain (within its socket) that ``rank``'s core belongs to."""
        return self.slots[rank][2]

    def core_of(self, rank: int) -> int:
        """Core index (within its node) that ``rank`` is bound to."""
        return self.slots[rank][3]

    def ranks_on_node(self, node: int) -> List[int]:
        """Ranks bound to one node (the node-level communicator), sorted."""
        return list(self._tier_index()[0].get(node, ()))

    def ranks_on_socket(self, node: int, socket: int) -> List[int]:
        """Ranks bound to one socket (the socket-level communicator)."""
        return list(self._tier_index()[1].get((node, socket), ()))

    def ranks_on_numa(self, node: int, socket: int, numa: int) -> List[int]:
        """Ranks bound to one NUMA domain (the NUMA-level communicator)."""
        return list(self._tier_index()[2].get((node, socket, numa), ()))

    def sockets_on_node(self, node: int) -> List[int]:
        """Socket indices of ``node`` that hold at least one rank, sorted."""
        return sorted(
            {s for (n, s) in self._tier_index()[1] if n == node}
        )

    def numas_on_socket(self, node: int, socket: int) -> List[int]:
        """NUMA indices of one socket that hold at least one rank, sorted."""
        return sorted(
            {
                m
                for (n, s, m) in self._tier_index()[2]
                if n == node and s == socket
            }
        )

    def node_leaders(self) -> List[int]:
        """Lowest rank on each node, in node order (the 'coordinators')."""
        seen: dict[int, int] = {}
        for rank, (node, _, _, _) in enumerate(self.slots):
            seen.setdefault(node, rank)
        return [seen[n] for n in sorted(seen)]

    def local_rank(self, rank: int) -> int:
        """Rank's index among the ranks of its own node (shared-memory comm)."""
        return self._tier_index()[3]["node"][rank]

    def socket_rank(self, rank: int) -> int:
        """Rank's index among the ranks of its own socket."""
        return self._tier_index()[3]["socket"][rank]

    def numa_rank(self, rank: int) -> int:
        """Rank's index among the ranks of its own NUMA domain."""
        return self._tier_index()[3]["numa"][rank]


def block_placement(cluster: ClusterSpec, ppn: int) -> Placement:
    """Place ``ppn`` consecutive ranks on each node (MPI default `-map-by node`).

    ``ppn`` must not exceed any node's core count — the reproduction
    never oversubscribes cores, matching the paper's setup.  Within a
    node, ranks fill cores (and therefore sockets and NUMA domains) in
    order, so a rank block never straddles a tier boundary it does not
    fully cover.
    """
    slots: List[Tuple[int, int, int, int]] = []
    for node_index, node in enumerate(cluster.nodes):
        if ppn > node.cores:
            raise ValueError(
                f"ppn={ppn} oversubscribes node {node.name} ({node.cores} cores)"
            )
        slots.extend(
            (node_index, node.socket_of_core(core), node.numa_of_core(core), core)
            for core in range(ppn)
        )
    return Placement(cluster=cluster, slots=tuple(slots))

