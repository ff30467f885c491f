"""Process placement: mapping MPI ranks to (node, socket, numa, core) slots.

The paper's two execution models place processes differently:

* **MPI+MPI** — ``ppn`` MPI processes per node (16 in the evaluation),
  rank-ordered block placement, one process per core.
* **MPI+OpenMP** — one MPI process per node; its OpenMP threads occupy
  the node's cores.

Both are expressed through :func:`block_placement`, the only placement
policy the reproduction needs and the only one this module defines.

Every slot carries the full machine path ``(node, socket, numa, core)``.
Cores are numbered socket- and NUMA-contiguously (cores ``[s*cps,
(s+1)*cps)`` belong to socket ``s``, and within a socket consecutive
runs of ``cores_per_numa`` cores share a NUMA domain), so block
placement fills socket 0 before socket 1 — and NUMA domain 0 before
NUMA domain 1 within each socket — and never splits a tier group
between two non-adjacent rank ranges; consecutive ranks share sockets
and NUMA domains exactly as ``--map-by core`` binds them on real
hardware.

Multi-level scheduling stacks (node -> socket -> numa -> core) walk one
tree of tier groups, built by :func:`tier_groups` and memoised per
stack depth by :meth:`Placement.tier_groups`: each group's key, member
ranks, position under its parent and child groups are worked out there
and nowhere else.

Conventions: every query here takes or returns **MPI ranks** and
machine coordinates (node index, socket within node, NUMA domain
within socket, core within node); nothing in this module is a time —
costs (in seconds) live in :mod:`repro.cluster.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.machine import ClusterSpec

#: deepest scheduling stack the machine tiers carry:
#: cluster -> node -> socket -> numa -> core
MAX_DEPTH = 4


@dataclass(frozen=True)
class TierGroup:
    """One tier group of a scheduling stack: the ranks sharing one
    tier queue (the paper's local queue, one per node, socket or NUMA
    domain), refilled from its parent group's queue.

    ``tier`` counts from 1 (the groups below the global queue);
    ``position`` is the group's index among its parent's children (the
    node index at tier 1) — the ``pe`` the parent's technique sees.
    ``children`` are the child group keys, empty at the leaf tier,
    whose queues the member ranks take from directly.
    """

    key: Hashable
    tier: int
    members: Tuple[int, ...]
    position: int
    parent: Optional[Hashable]
    children: Tuple[Hashable, ...]

    @property
    def fanout(self) -> int:
        """Child count of the group's queue: its child groups, or its
        member ranks at the leaf tier."""
        return len(self.children) or len(self.members)


def tier_groups(
    paths: Iterable[Sequence[Hashable]], n_tiers: int
) -> Dict[Hashable, TierGroup]:
    """Every tier group of an ``n_tiers``-deep stack, keyed by group key.

    ``paths`` yields each rank's group key at each tier, rank by rank,
    outermost tier first (keys must differ across tiers).  One pass
    over the ranks collects members and children in order of first
    appearance; the result lists groups depth first, each group before
    its children (node-major order for block placements).
    """
    #: key -> (member ranks, child keys), both in order of appearance
    found: Dict[Hashable, Tuple[List[int], List[Hashable]]] = {}
    roots: List[Hashable] = []
    for rank, path in enumerate(paths):
        siblings = roots
        for key in path[:n_tiers]:
            entry = found.get(key)
            if entry is None:
                entry = found[key] = ([], [])
                siblings.append(key)
            entry[0].append(rank)
            siblings = entry[1]
    groups: Dict[Hashable, TierGroup] = {}

    def walk(keys: List[Hashable], tier: int, parent: Optional[Hashable]) -> None:
        for position, key in enumerate(keys):
            members, children = found[key]
            groups[key] = TierGroup(
                key, tier, tuple(members), position, parent, tuple(children)
            )
            walk(children, tier + 1, key)

    walk(roots, 1, None)
    return groups


def leaf_slots(groups: Dict[Hashable, TierGroup]) -> Dict[int, Tuple[Hashable, int]]:
    """rank -> (its leaf group's key, its child index in that group)."""
    return {
        rank: (group.key, child)
        for group in groups.values()
        if not group.children
        for child, rank in enumerate(group.members)
    }


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

    def tier_groups(self, depth: int) -> Dict[Hashable, TierGroup]:
        """The tier groups of a depth-``depth`` stack (memoised).

        ``depth - 1`` tiers lie below the global queue, keyed in the
        window-key convention: the node index at tier 1, then
        ``(node, socket)`` and ``(node, socket, numa)``.  The single
        owner of group keys, members and positions: the execution
        models, dCC, the placement optimiser and the shared windows
        all walk this tree.  One pass over the ranks builds the full
        tree; a shallower stack cuts it at its leaf tier.
        """
        cache = self.__dict__.setdefault("_tier_groups", {})
        groups = cache.get(depth)
        if groups is None:
            if depth == MAX_DEPTH:
                # paths are generated one rank at a time: a list of
                # them would be a transient of ~2 MB at 10^4 ranks
                groups = tier_groups(
                    ((n, (n, s), (n, s, m)) for n, s, m, _ in self.slots),
                    MAX_DEPTH - 1,
                )
            else:
                leaf = depth - 1
                groups = {
                    key: group if group.tier < leaf
                    else replace(group, children=())
                    for key, group in self.tier_groups(MAX_DEPTH).items()
                    if group.tier <= leaf
                }
            cache[depth] = groups
        return groups

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
        group = self.tier_groups(MAX_DEPTH).get(node)
        return list(group.members) if group is not None else []


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

