"""Penalty-aware queue placement: choose where work-queue windows live.

Every queue of the MPI+MPI refill tree is backed by a window whose
memory physically lives in one NUMA domain — the *home*.  Historically
the home was fixed by fiat: the global RMA window on rank 0 and each
tier queue's shared window with its group leader (first-touch by the
lowest rank).  With the locality-tier cost model of
:mod:`repro.cluster.costs`, that choice is priced: every lock-attempt
message, unlock, shared load and remote atomic pays the tier penalty of
the (accessing rank, home rank) pair — so *where* the window lives
decides how much the tree's coordination traffic costs, exactly the
lever the companion RMA work (Eleliemy & Ciorba 2019, passive-target
DLS) identifies as dominating lock/poll latency.

This module is the placement *optimizer*:

* :func:`predict_profile` turns a :class:`~repro.core.hierarchy.
  HierarchicalSpec` plus a topology into a predicted **access
  profile** — per window, per rank, how many shared loads and atomic
  messages the run is expected to issue.  Counts come from the
  techniques' memoised serial chunk sequences
  (:meth:`~repro.core.technique_base.ChunkCalculator.total_steps`),
  distributed over ranks in proportion to their core speeds (a faster
  subtree drains and refills its queues proportionally more often).
* :func:`solve_placement` prices every candidate home for every window
  under that profile (all costs in **seconds**) and picks the cheapest,
  exhaustively for small tiers and by a weighted-centroid heuristic
  above :data:`EXHAUSTIVE_LIMIT` candidates; the **decision rule** only
  moves a window when the predicted cost is *strictly* below the
  leader home's, so ``solve_placement(...).objective <=
  leader_plan(...).objective`` always holds (the property the test
  suite pins).
* :func:`resolve_placement` normalises the public ``placement=`` knob
  (``"leader"`` | ``"optimized"`` | an explicit ``{window key ->
  rank}`` mapping) into a :class:`PlacementPlan` for the execution
  models.

All ranks in this module are **MPI ranks** (indices into the
:class:`~repro.cluster.topology.Placement`), never node indices; window
keys are the tier-group keys of
:meth:`repro.cluster.topology.Placement.tier_groups` — the node index
at tier 1, ``(node, socket)`` / ``(node, socket, numa)`` below it —
plus the reserved string ``"global"`` (:data:`GLOBAL_WINDOW`) for the
global RMA queue.  The profile recurses over that tree's children.

See ``docs/PLACEMENT.md`` for the objective, a worked example and the
calibration methodology behind ``CALIBRATED_COSTS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from repro.cluster.costs import CostModel, DEFAULT_COSTS
from repro.cluster.interconnect import tier_between
from repro.cluster.machine import ClusterSpec
from repro.cluster.topology import Placement, TierGroup, block_placement

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hierarchy import HierarchicalSpec, LevelSpec

#: key of the global RMA work-queue window in plans and profiles
GLOBAL_WINDOW = "global"

#: a window key: :data:`GLOBAL_WINDOW`, a node index, or a tier tuple
WindowKey = Union[str, int, Tuple[int, ...]]

#: accepted values of the public ``placement=`` knob
PlacementArg = Union[str, Mapping[WindowKey, int]]

#: above this many candidate homes for one window the solver switches
#: from exhaustive pricing to the weighted-centroid heuristic
EXHAUSTIVE_LIMIT = 64

#: predicted shared loads per queue *take* (head pointers + counters,
#: mirroring the ``access(n=3)`` charges of the worker protocol) and
#: atomic messages per take (one lock-attempt plus one unlock).  The
#: constants scale the objective; only their load-vs-atomic *ratio*
#: influences which home wins.
LOADS_PER_TAKE = 3.0
ATOMICS_PER_TAKE = 2.0


@dataclass(frozen=True)
class WindowProfile:
    """Predicted traffic of one window: per-rank loads and atomics.

    ``loads``/``atomics`` map each accessing rank to its expected
    number of shared loads / atomic messages on this window over the
    whole run (dimensionless counts; the solver prices them in
    seconds).  ``members`` are the ranks eligible to *host* the window
    (the tier group; every rank for the global window).
    """

    key: WindowKey
    members: Tuple[int, ...]
    loads: Mapping[int, float]
    atomics: Mapping[int, float]


@dataclass(frozen=True)
class AccessProfile:
    """Predicted access profile of one run: one entry per window."""

    windows: Tuple[WindowProfile, ...]

    def window(self, key: WindowKey) -> WindowProfile:
        """The profile of one window key (raises ``KeyError`` if absent)."""
        for profile in self.windows:
            if profile.key == key:
                return profile
        raise KeyError(f"no predicted window {key!r}")


@dataclass(frozen=True)
class PlacementPlan:
    """A resolved window-home assignment plus its predicted cost.

    ``homes`` maps every shared-window key to its home **rank**;
    ``global_host`` is the rank hosting the global RMA window.
    ``objective`` is the plan's total predicted priced traffic in
    **seconds** under the profile it was solved against; ``moved``
    lists the window keys whose home differs from the leader default.
    """

    strategy: str
    global_host: int
    homes: Mapping[WindowKey, int]
    objective: float
    moved: Tuple[WindowKey, ...] = ()

    def home_of(self, key: WindowKey) -> Optional[int]:
        """Home rank for a shared-window ``key`` (None = leader default)."""
        return self.homes.get(key)


# ---------------------------------------------------------------------------
# access-profile prediction
# ---------------------------------------------------------------------------
def _chunk_count(level: "LevelSpec", n: float, p: int) -> int:
    """Expected number of chunks ``level`` carves from ``n`` iterations.

    Deterministic techniques answer exactly via their memoised serial
    sequence; adaptive / PE-dependent ones (whose sequence depends on
    runtime state) fall back to a FAC-style batch estimate of ``p``
    chunks per halving of the remainder.
    """
    n_int = max(1, int(round(n)))
    p = max(1, int(p))
    try:
        calc = level.make_calculator(n_int, p)
        if calc.deterministic:
            return max(1, calc.total_steps())
    except Exception:  # missing profile/weights/rng: fall through
        pass
    return max(p, p * int(math.ceil(math.log2(max(2.0, n_int / p)))))


def _speed_of(cluster: ClusterSpec, placement: Placement, rank: int) -> float:
    """Nominal core speed of ``rank`` (silicon noise is not predictable)."""
    return cluster.nodes[placement.node_of(rank)].core_speed


def _shares(weights: List[float]) -> List[float]:
    """Normalise non-negative weights to shares summing to 1."""
    total = sum(weights)
    if total <= 0:
        return [1.0 / len(weights)] * len(weights)
    return [w / total for w in weights]


def predict_profile(
    spec: "HierarchicalSpec",
    n_iterations: int,
    cluster: ClusterSpec,
    ppn: Optional[int] = None,
) -> AccessProfile:
    """Predict per-window, per-rank traffic for one hierarchical run.

    Mirrors the queue tree :class:`repro.models.MpiMpiModel` builds for
    ``spec`` on ``cluster``: the global RMA window plus one shared
    window per tier group (node / socket / NUMA domain).  Chunk-fetch
    counts derive from the memoised serial chunk sequences; each tier
    group's fetches are attributed to its member ranks proportionally
    to their core speeds, because whichever member drains the queue
    first refills it and faster subtrees drain proportionally more
    often.  All returned quantities are *operation counts*; the solver
    prices them in seconds.
    """
    if ppn is None:
        ppn = min(node.cores for node in cluster.nodes)
    placement = block_placement(cluster, ppn)
    depth = spec.depth
    speeds = [_speed_of(cluster, placement, r) for r in range(placement.size)]
    all_ranks = tuple(range(placement.size))
    windows: List[WindowProfile] = []

    # --- global RMA window -------------------------------------------
    root = spec.levels[0]
    root_pes = placement.size if depth == 1 else cluster.n_nodes
    if root.technique.pinned_per_pe:
        # pinned STATIC: each root PE takes exactly its own chunk
        # without touching the window — zero global traffic, but one
        # deposit still arrives in every node queue
        root_fetches = 0.0
        root_chunks = float(root_pes)
    else:
        root_fetches = float(_chunk_count(root, n_iterations, root_pes))
        root_chunks = root_fetches
    atomics_per_fetch = 1.0 if _is_deterministic(root, n_iterations, root_pes) else 2.0
    node_weights = [
        sum(speeds[r] for r in placement.ranks_on_node(node))
        for node in range(cluster.n_nodes)
    ]
    node_shares = _shares(node_weights)
    global_atomics: Dict[int, float] = {}
    if depth == 1:
        shares = _shares(speeds)
        for rank in all_ranks:
            global_atomics[rank] = root_fetches * atomics_per_fetch * shares[rank]
    else:
        for node in range(cluster.n_nodes):
            members = placement.ranks_on_node(node)
            member_shares = _shares([speeds[r] for r in members])
            for rank, share in zip(members, member_shares):
                global_atomics[rank] = (
                    root_fetches * atomics_per_fetch * node_shares[node] * share
                )
    windows.append(
        WindowProfile(
            key=GLOBAL_WINDOW,
            members=all_ranks,
            loads={},
            atomics=global_atomics,
        )
    )
    if depth == 1:
        return AccessProfile(windows=tuple(windows))

    # --- shared tier windows (node -> socket -> numa) -----------------
    mean_root_chunk = n_iterations / max(1.0, root_chunks)
    groups = placement.tier_groups(depth)
    for node in range(cluster.n_nodes):
        if root.technique.pinned_per_pe:
            deposits = 1.0  # exactly the node's own pinned chunk
        else:
            deposits = root_chunks * node_shares[node]
        _profile_tier(
            windows, spec, groups, groups[node], speeds, deposits, mean_root_chunk
        )
    return AccessProfile(windows=tuple(windows))


def _is_deterministic(level: "LevelSpec", n: int, p: int) -> bool:
    """Whether ``level``'s calculator runs the single-counter protocol."""
    try:
        return bool(level.make_calculator(max(1, int(n)), max(1, p)).deterministic)
    except Exception:
        return False


def _profile_tier(
    windows: List[WindowProfile],
    spec: "HierarchicalSpec",
    groups: Mapping[WindowKey, TierGroup],
    group: TierGroup,
    speeds: List[float],
    deposits: float,
    mean_chunk: float,
) -> None:
    """Recursively profile ``group``'s queue and its child queues.

    ``deposits`` chunks of ``mean_chunk`` iterations each arrive in this
    queue over the run; the level's technique carves each into takes,
    and every take costs :data:`LOADS_PER_TAKE` shared loads plus
    :data:`ATOMICS_PER_TAKE` atomic messages, attributed to the taking
    rank.  Interior tiers recurse with each child group's share of the
    takes as that child's deposits — including when ``deposits`` is
    zero, so every window the execution model builds appears in the
    profile (explicit placement maps validate against it).
    """
    children = [groups[key].members for key in group.children] or [
        (rank,) for rank in group.members
    ]
    takes_per_deposit = _chunk_count(
        spec.levels[group.tier], mean_chunk, len(children)
    )
    total_takes = deposits * takes_per_deposit
    child_weights = [sum(speeds[r] for r in members) for members in children]
    child_shares = _shares(child_weights)

    loads: Dict[int, float] = {}
    atomics: Dict[int, float] = {}
    for members, share in zip(children, child_shares):
        group_takes = total_takes * share
        member_shares = _shares([speeds[r] for r in members])
        for rank, m_share in zip(members, member_shares):
            loads[rank] = loads.get(rank, 0.0) + group_takes * m_share * LOADS_PER_TAKE
            atomics[rank] = (
                atomics.get(rank, 0.0) + group_takes * m_share * ATOMICS_PER_TAKE
            )
    windows.append(
        WindowProfile(
            key=group.key, members=group.members, loads=loads, atomics=atomics
        )
    )

    mean_child = mean_chunk / takes_per_deposit if takes_per_deposit else 0.0
    for key, share in zip(group.children, child_shares):
        _profile_tier(
            windows, spec, groups, groups[key], speeds,
            total_takes * share, mean_child,
        )


# ---------------------------------------------------------------------------
# pricing and solving
# ---------------------------------------------------------------------------
def _improves(cost: float, incumbent: float) -> bool:
    """Decision-rule comparison: strictly cheaper beyond float noise.

    Candidate costs are sums over ranks whose terms arrive in different
    orders for different homes, so exact ties can differ in the last
    ulp; a symmetric pair must *not* count as an improvement (the
    window stays with the leader on ties).
    """
    return cost < incumbent - max(1e-18, 1e-9 * abs(incumbent))


def _shared_window_cost(
    profile: WindowProfile,
    home: int,
    placement: Placement,
    costs: CostModel,
) -> float:
    """Predicted priced traffic (seconds) of one shared window at ``home``."""
    mpi = costs.mpi
    total = 0.0
    home_path = placement.slots[home]
    for rank, n_loads in profile.loads.items():
        tier = tier_between(placement.slots[rank], home_path)
        total += n_loads * mpi.tier_load_penalty(tier)
    for rank, n_atomics in profile.atomics.items():
        tier = tier_between(placement.slots[rank], home_path)
        total += n_atomics * mpi.tier_atomic_penalty(tier)
    return total


def _global_window_cost(
    profile: WindowProfile,
    host: int,
    placement: Placement,
    cluster: ClusterSpec,
    costs: CostModel,
) -> float:
    """Predicted priced atomic traffic (seconds) of the RMA window at ``host``.

    Unlike shared windows, the host choice changes the *base* service
    time of every atomic — same-node origins use the shared-memory
    atomic path while remote origins pay the full network round trip —
    on top of the locality-tier penalty.
    """
    mpi = costs.mpi
    total = 0.0
    host_path = placement.slots[host]
    for rank, n_atomics in profile.atomics.items():
        tier = tier_between(placement.slots[rank], host_path)
        base = mpi.rma_atomic_time(
            same_node=tier < 3, network_latency=cluster.network_latency
        )
        total += n_atomics * (base + mpi.tier_atomic_penalty(tier))
    return total


def _candidate_homes(
    profile: WindowProfile, placement: Placement
) -> List[int]:
    """One representative rank per distinct NUMA domain among members.

    The priced cost of a home depends only on its ``(node, socket,
    numa)`` machine path, so one candidate per occupied domain spans
    the whole search space; the representative is the lowest member
    rank of the domain, which makes the group leader always a
    candidate.
    """
    seen: Dict[Tuple[int, int, int], int] = {}
    for rank in profile.members:
        node, socket, numa, _core = placement.slots[rank]
        seen.setdefault((node, socket, numa), rank)
    return [seen[domain] for domain in sorted(seen)]


def _weight_by_domain(
    profile: WindowProfile, placement: Placement
) -> Dict[Tuple[int, int, int], float]:
    """Total predicted operations per (node, socket, numa) domain."""
    weights: Dict[Tuple[int, int, int], float] = {}
    for source in (profile.loads, profile.atomics):
        for rank, count in source.items():
            domain = placement.slots[rank][:3]
            weights[domain] = weights.get(domain, 0.0) + count
    return weights


def _prune_candidates(
    window: WindowProfile, placement: Placement, limit: int
) -> List[int]:
    """Candidate homes for one window, pruned to the solver's budget.

    At most ``limit`` candidates: exhaustive (one per occupied NUMA
    domain) below it, the weighted-centroid heuristic above — only the
    domain carrying the largest predicted operation count is priced
    (represented by its lowest member rank).
    """
    candidates = _candidate_homes(window, placement)
    if len(candidates) <= limit:
        return candidates
    domains = _weight_by_domain(window, placement)
    if not domains:
        return []
    top = max(sorted(domains), key=lambda d: domains[d])
    return [
        min(r for r in window.members if placement.slots[r][:3] == top)
    ]


def leader_plan(
    spec: "HierarchicalSpec",
    n_iterations: int,
    cluster: ClusterSpec,
    ppn: Optional[int] = None,
    costs: CostModel = DEFAULT_COSTS,
    profile: Optional[AccessProfile] = None,
) -> PlacementPlan:
    """The paper-faithful default plan, priced for comparison.

    Global window on rank 0, every shared window with its tier-group
    leader (lowest member rank) — exactly the homes the execution
    models use when ``placement="leader"``.
    """
    if ppn is None:
        ppn = min(node.cores for node in cluster.nodes)
    placement = block_placement(cluster, ppn)
    if profile is None:
        profile = predict_profile(spec, n_iterations, cluster, ppn)
    homes: Dict[WindowKey, int] = {}
    objective = 0.0
    for window in profile.windows:
        if window.key == GLOBAL_WINDOW:
            objective += _global_window_cost(window, 0, placement, cluster, costs)
            continue
        leader = min(window.members) if window.members else 0
        homes[window.key] = leader
        objective += _shared_window_cost(window, leader, placement, costs)
    return PlacementPlan(
        strategy="leader", global_host=0, homes=homes, objective=objective
    )


def solve_placement(
    spec: "HierarchicalSpec",
    n_iterations: int,
    cluster: ClusterSpec,
    ppn: Optional[int] = None,
    costs: CostModel = DEFAULT_COSTS,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    profile: Optional[AccessProfile] = None,
) -> PlacementPlan:
    """Choose window homes minimising predicted priced traffic (seconds).

    Windows are independent in the objective, so each is solved on its
    own: exhaustively over one candidate per occupied NUMA domain when
    there are at most ``exhaustive_limit`` candidates, otherwise by the
    weighted-centroid heuristic (place the window in the domain with
    the largest predicted operation count and price only that
    candidate).  Either way the **decision rule** applies: the home
    moves off the leader only when the candidate is strictly cheaper,
    so the returned objective never exceeds :func:`leader_plan`'s.
    """
    if ppn is None:
        ppn = min(node.cores for node in cluster.nodes)
    placement = block_placement(cluster, ppn)
    if profile is None:
        profile = predict_profile(spec, n_iterations, cluster, ppn)
    homes: Dict[WindowKey, int] = {}
    moved: List[WindowKey] = []
    objective = 0.0
    global_host = 0
    for window in profile.windows:
        if window.key == GLOBAL_WINDOW:
            leader_cost = _global_window_cost(window, 0, placement, cluster, costs)
            best_rank, best_cost = 0, leader_cost
            for candidate in _prune_candidates(window, placement, exhaustive_limit):
                cost = _global_window_cost(
                    window, candidate, placement, cluster, costs
                )
                if _improves(cost, best_cost):
                    best_rank, best_cost = candidate, cost
            if best_rank != 0:
                moved.append(GLOBAL_WINDOW)
            global_host = best_rank
            objective += best_cost
            continue
        leader = min(window.members) if window.members else 0
        leader_cost = _shared_window_cost(window, leader, placement, costs)
        best_rank, best_cost = leader, leader_cost
        for candidate in _prune_candidates(window, placement, exhaustive_limit):
            cost = _shared_window_cost(window, candidate, placement, costs)
            if _improves(cost, best_cost):
                best_rank, best_cost = candidate, cost
        homes[window.key] = best_rank
        if best_rank != leader:
            moved.append(window.key)
        objective += best_cost
    return PlacementPlan(
        strategy="optimized",
        global_host=global_host,
        homes=homes,
        objective=objective,
        moved=tuple(moved),
    )


def explicit_plan(
    mapping: Mapping[WindowKey, int],
    spec: "HierarchicalSpec",
    n_iterations: int,
    cluster: ClusterSpec,
    ppn: Optional[int] = None,
    costs: CostModel = DEFAULT_COSTS,
) -> PlacementPlan:
    """Validate a user-supplied ``{window key -> home rank}`` mapping.

    Keys absent from the mapping keep their leader default; the
    reserved key :data:`GLOBAL_WINDOW` pins the global RMA host.  Home
    ranks must be members of the window's tier group (any rank for the
    global window) — violations raise ``ValueError`` because a real
    ``MPI_Win_allocate_shared`` cannot first-touch memory it does not
    own.
    """
    if ppn is None:
        ppn = min(node.cores for node in cluster.nodes)
    placement = block_placement(cluster, ppn)
    profile = predict_profile(spec, n_iterations, cluster, ppn)
    known = {window.key: window for window in profile.windows}
    for key, rank in mapping.items():
        if key not in known:
            raise ValueError(
                f"placement map names unknown window {key!r}; known windows: "
                f"{sorted(known, key=repr)}"
            )
        if not 0 <= int(rank) < placement.size:
            raise ValueError(f"placement map rank {rank!r} outside world")
        if key != GLOBAL_WINDOW and int(rank) not in known[key].members:
            raise ValueError(
                f"rank {rank} is not a member of window {key!r} "
                f"(members {list(known[key].members)})"
            )
    homes: Dict[WindowKey, int] = {}
    moved: List[WindowKey] = []
    objective = 0.0
    global_host = int(mapping.get(GLOBAL_WINDOW, 0))
    for window in profile.windows:
        if window.key == GLOBAL_WINDOW:
            objective += _global_window_cost(
                window, global_host, placement, cluster, costs
            )
            if global_host != 0:
                moved.append(GLOBAL_WINDOW)
            continue
        leader = min(window.members) if window.members else 0
        home = int(mapping.get(window.key, leader))
        homes[window.key] = home
        if home != leader:
            moved.append(window.key)
        objective += _shared_window_cost(window, home, placement, costs)
    return PlacementPlan(
        strategy="explicit",
        global_host=global_host,
        homes=homes,
        objective=objective,
        moved=tuple(moved),
    )


def resolve_placement(
    placement: PlacementArg,
    spec: "HierarchicalSpec",
    n_iterations: int,
    cluster: ClusterSpec,
    ppn: Optional[int] = None,
    costs: CostModel = DEFAULT_COSTS,
) -> Optional[PlacementPlan]:
    """Normalise the public ``placement=`` knob into a plan.

    ``"leader"`` returns None — the fast path where execution models
    keep their historical first-touch homes without computing a
    profile; ``"optimized"`` solves, a mapping validates.
    """
    if isinstance(placement, str):
        key = placement.strip().lower()
        if key == "leader":
            return None
        if key == "optimized":
            return solve_placement(spec, n_iterations, cluster, ppn, costs)
        raise ValueError(
            f"unknown placement {placement!r}; choose 'leader', 'optimized' "
            "or an explicit {window key -> rank} mapping"
        )
    if isinstance(placement, Mapping):
        return explicit_plan(placement, spec, n_iterations, cluster, ppn, costs)
    raise TypeError(
        f"placement must be a string or mapping, got {type(placement).__name__}"
    )


__all__ = [
    "AccessProfile",
    "EXHAUSTIVE_LIMIT",
    "GLOBAL_WINDOW",
    "PlacementPlan",
    "WindowProfile",
    "explicit_plan",
    "leader_plan",
    "predict_profile",
    "resolve_placement",
    "solve_placement",
]
