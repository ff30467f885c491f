"""Really-parallel execution of workloads with DLS chunk calculators.

Two execution modes mirror the paper's architectures on one machine:

* **flat** — all workers share one work queue (a counter + the
  technique calculator behind one lock), i.e. the distributed
  chunk-calculation approach collapsed onto shared memory;
* **hierarchical** — workers form groups; each group has a local queue
  refilled from the global queue by whichever group member drains it
  first — exactly the MPI+MPI design with threads standing in for MPI
  processes and a ``threading.Lock`` standing in for ``MPI_Win_lock``.

The hierarchical mode is **topology-aware**: its ``topology=`` (a
:class:`~repro.cluster.machine.NodeSpec` or
:class:`~repro.cluster.machine.ClusterSpec`) forms the groups from the
machine's placement — socket/NUMA-contiguous worker blocks, one local
queue *per machine-tier group* with its own lock, mirroring
the simulator's per-level queues (per-node, per-socket, per-NUMA
shared windows).  A depth-``d`` spec then maps onto the machine tiers
exactly as :class:`repro.models.MpiMpiModel` maps it, so properties
proven in the simulator transfer to real threaded runs of the same
stack.

Every grab goes through the code the simulator runs: the root is one
:class:`~repro.core.workqueue.WorkChunk` over ``[0, n)`` behind a
``threading.Lock``, and every tier queue is a
:class:`~repro.core.workqueue.TierQueue` whose carve, refill and
drained flag are the simulator's own.  The runner adds only the
threading locks, the per-worker lock-acquisition ledger and the
deposit log, so schedule correctness properties proven in the
simulator transfer to real executions.

Unit convention: ``wall_seconds`` and per-worker busy times are host
seconds; ``simulated_lock_penalty_s`` is simulated seconds under the
run's cost model.  Index convention: worker ``w`` stands in for rank
``w`` and binds to the ``w``-th core of the topology in placement
order; group keys are machine paths starting at the node index
(``(node, socket, numa)``) for a cluster, at the socket for one node.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cluster.costs import CostModel, DEFAULT_COSTS
from repro.cluster.interconnect import Tier, tier_between
from repro.cluster.machine import ClusterSpec, NodeSpec
from repro.cluster.topology import leaf_slots, tier_groups
from repro.core.chunking import ChunkLog, verify_schedule
from repro.core.hierarchy import HierarchicalSpec, LevelSpec
from repro.core.workqueue import TierQueue, WorkChunk
from repro.workloads.base import Workload

#: a leaf/interior tier-group key: the machine path of the group, e.g.
#: ``(node,)``, ``(node, socket)`` or ``(node, socket, numa)``
GroupKey = Tuple[int, ...]


def _leaf_tier(path_a: GroupKey, path_b: GroupKey) -> Tier:
    """Locality tier between two workers' leaf machine paths.

    Paths are ``(socket, numa)`` for a :class:`NodeSpec` topology
    (single-node: prepend node 0) and ``(node, socket, numa)`` for a
    :class:`ClusterSpec`; classification delegates to the cascade's
    single owner, :func:`repro.cluster.interconnect.tier_between`.
    """
    if len(path_a) == 2:
        path_a, path_b = (0, *path_a), (0, *path_b)
    return tier_between(path_a, path_b)


@dataclass
class NativeResult:
    """Outcome of one real execution."""

    workload: str
    mode: str
    n_workers: int
    wall_seconds: float
    #: chunks in grab order (worker-level)
    chunks: ChunkLog
    #: per-worker executed iteration counts
    per_worker_iterations: Dict[int, int]
    #: per-worker busy seconds (sum of kernel times)
    per_worker_busy: Dict[int, float]
    #: concatenated kernel outputs, indexable by iteration (if collected)
    outputs: Optional[Dict[int, Any]] = field(default=None, repr=False)
    #: hierarchical runs only: leaf tier-group key -> member worker ids
    groups: Optional[Dict[GroupKey, List[int]]] = field(default=None, repr=False)
    #: hierarchical runs only: tier-group key -> deposited (start, size)
    #: ranges, in deposit order (every queue tier, not just leaves)
    group_deposits: Optional[Dict[GroupKey, List[Tuple[int, int]]]] = field(
        default=None, repr=False
    )
    #: hierarchical runs only: tier-group key -> {worker: lock
    #: acquisitions} — how often each worker took each tier queue's lock
    group_lock_acquisitions: Optional[Dict[GroupKey, Dict[int, int]]] = field(
        default=None, repr=False
    )
    #: hierarchical runs only: the simulated locality cost of those
    #: acquisitions under the run's cost model — each lock grab priced
    #: at the tier-atomic penalty between the worker's core and the
    #: queue's home NUMA domain.  Zero with default (distance-blind)
    #: knobs; under a NUMA-penalty preset this is the number the
    #: flat-vs-per-NUMA queue-placement benchmark compares.
    simulated_lock_penalty_s: Optional[float] = None
    #: hierarchical runs only: tier-group key -> the (node, socket,
    #: numa)-style leaf path whose NUMA domain homes that queue's
    #: memory (leader first-touch by default; the ``placement=`` knob
    #: of :meth:`NativeRunner.run_hierarchical` can move it)
    group_homes: Optional[Dict[GroupKey, GroupKey]] = field(
        default=None, repr=False
    )

    @property
    def total_iterations(self) -> int:
        """Iterations executed across all workers (``n`` on success)."""
        return sum(self.per_worker_iterations.values())

    def verify(self, n: int) -> None:
        """Assert the execution tiled the iteration space exactly."""
        verify_schedule(self.chunks, n)


def _root_carver(calc, n: int):
    """The root queue — one chunk over ``[0, n)`` behind a
    ``threading.Lock`` — as its locked carve ``pe -> (start, size,
    step) | None``."""
    root, lock = WorkChunk(0, n, calc), threading.Lock()

    def carve(pe: int) -> Optional[Tuple[int, int, int]]:
        with lock:
            return root.carve(pe)

    return carve


class _ThreadQueue(TierQueue):
    """A tier queue behind its own lock (the per-tier ``MPI_Win_lock``
    analogue), with the ledgers the result reports."""

    def __init__(self, spec: LevelSpec, n_children: int, parent, parent_pe: int):
        super().__init__(spec, n_children, parent, parent_pe)
        self.lock = threading.Lock()
        #: deposited ``(start, size)`` ranges, in deposit order
        self.deposits: List[Tuple[int, int]] = []
        #: worker pe -> times that worker acquired this queue's lock
        self.acquisitions: Dict[int, int] = {}


class NativeRunner:
    """Run a workload's real kernels under DLS scheduling on threads."""

    def __init__(
        self,
        workload: Workload,
        n_workers: int = 4,
        collect_outputs: bool = False,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if workload.executor is None:
            raise ValueError(
                f"workload {workload.name!r} has no real executor; the native "
                "backend runs kernels, not cost models"
            )
        self.workload = workload
        self.n_workers = n_workers
        self.collect_outputs = collect_outputs

    # ------------------------------------------------------------------
    def run_flat(self, technique: "str | Any", **level_kwargs: Any) -> NativeResult:
        """Single-level self-scheduling across all workers."""
        n = self.workload.n
        carve = _root_carver(
            LevelSpec.of(technique, **level_kwargs).make_calculator(n, self.n_workers),
            n,
        )

        def worker_loop(pe: int, record) -> None:
            while True:
                grabbed = carve(pe)
                if grabbed is None:
                    return
                start, size, step = grabbed
                record(pe, step, start, size)

        return self._execute("flat", worker_loop)

    def run_hierarchical(
        self,
        spec: HierarchicalSpec,
        *,
        topology: Union[NodeSpec, ClusterSpec],
        costs: Optional[CostModel] = None,
        placement: Union[str, Dict[GroupKey, Any]] = "leader",
    ) -> NativeResult:
        """Multi-level scheduling: groups with local queues (MPI+MPI style).

        ``topology`` (a :class:`NodeSpec` or :class:`ClusterSpec`) forms
        the groups: workers bind to machine cores in placement order and
        one local queue exists per occupied machine-tier group, each
        with its own lock.  A :class:`NodeSpec` exposes the tiers
        node -> socket -> numa (the node is the global queue; depth
        <= 3), a :class:`ClusterSpec` exposes cluster -> node -> socket
        -> numa (depth <= 4), so a depth-4 ``W+X+Y+Z`` stack runs
        through the same refill tree as the simulator's
        :class:`~repro.models.MpiMpiModel`.

        ``costs`` prices the run's tier-queue lock traffic through the
        simulator's cost model: the result reports
        ``simulated_lock_penalty_s``, each lock grab charged the
        tier-atomic penalty between the grabbing worker's core and the
        queue's home NUMA domain — the native-side counterpart of the
        simulator's poll-wait accounting.

        ``placement`` chooses each queue's home NUMA domain for that
        pricing: ``"leader"`` (first-touch by the group's first worker,
        the historical rule), ``"optimized"`` (the
        :mod:`repro.cluster.placement_opt` decision rule — move only
        when the priced ledger prediction is strictly cheaper), or an
        explicit ``{group key -> worker index | leaf path}`` mapping.
        The chosen homes are reported as ``group_homes``.
        """
        slots = self._tier_paths(topology)
        if self.n_workers > len(slots):
            raise ValueError(
                f"{self.n_workers} workers oversubscribe the topology's "
                f"{len(slots)} cores"
            )
        # workers bind to the placement prefix, like ppn < cores in the
        # simulator: tier groups follow the placement, not the raw machine
        slots = slots[: self.n_workers]
        depth = spec.depth
        max_depth = 1 + len(slots[0])
        if not 2 <= depth <= max_depth:
            raise ValueError(
                f"a {type(topology).__name__} topology maps stacks of depth "
                f"2..{max_depth}; got a depth-{depth} stack ({spec.label})"
            )

        groups = tier_groups(slots, depth - 1)
        carve_root = _root_carver(
            spec.inter.make_calculator(
                self.workload.n, sum(g.parent is None for g in groups.values())
            ),
            self.workload.n,
        )
        # tier-major, each parent before its children
        queues: Dict[GroupKey, _ThreadQueue] = {}
        for group in sorted(groups.values(), key=lambda g: g.tier):
            queues[group.key] = _ThreadQueue(
                spec.levels[group.tier],
                group.fanout,
                parent=None if group.parent is None else queues[group.parent],
                parent_pe=group.position,
            )
        leaves = leaf_slots(groups)

        def worker_loop(pe: int, record) -> None:
            key, child = leaves[pe]
            leaf = queues[key]
            while True:
                sub = self._take_tiered(leaf, carve_root, child, worker=pe)
                if sub is None:
                    return
                record(pe, -1, sub[1], sub[2])

        result = self._execute("hierarchical", worker_loop)
        result.groups = {
            key: list(g.members) for key, g in groups.items() if not g.children
        }
        result.group_deposits = {
            key: list(q.deposits) for key, q in queues.items()
        }
        result.group_lock_acquisitions = {
            key: dict(q.acquisitions) for key, q in queues.items()
        }
        # price the lock traffic through the (possibly tiered) cost
        # model: each queue's memory defaults to its lowest-numbered
        # member's NUMA domain (first-touch), like the simulator's
        # SharedWindow homes; the placement knob can move it
        leaf_paths = [path[-1] for path in slots]
        mpi = (costs or DEFAULT_COSTS).mpi
        group_members = {key: groups[key].members for key in queues}
        homes = self._native_homes(placement, group_members, leaf_paths, mpi)
        penalty = 0.0
        for key, q in queues.items():
            home = homes[key]
            for worker, n_acquired in q.acquisitions.items():
                penalty += n_acquired * mpi.tier_atomic_penalty(
                    _leaf_tier(leaf_paths[worker], home)
                )
        result.simulated_lock_penalty_s = penalty
        result.group_homes = homes
        return result

    @staticmethod
    def _native_homes(
        placement: Union[str, Dict[GroupKey, Any]],
        group_members: Dict[GroupKey, List[int]],
        leaf_paths: List[GroupKey],
        mpi,
    ) -> Dict[GroupKey, GroupKey]:
        """Resolve each queue's home NUMA path for the priced ledger.

        ``"leader"`` homes every queue with its first member's leaf
        path; ``"optimized"`` applies the
        :mod:`repro.cluster.placement_opt` decision rule with uniform
        per-member weights (every worker is expected to grab its queues
        equally often) — a candidate domain replaces the leader only
        when its predicted tier-atomic cost is strictly cheaper; an
        explicit mapping pins homes by worker index or leaf path.
        """
        homes: Dict[GroupKey, GroupKey] = {}
        if not isinstance(placement, str):
            unknown = set(placement) - set(group_members)
            if unknown:
                raise ValueError(
                    f"placement map names unknown groups {sorted(unknown)}; "
                    f"known groups: {sorted(group_members)}"
                )
        for key, members in group_members.items():
            leader = leaf_paths[members[0]]
            if isinstance(placement, str):
                if placement == "leader":
                    homes[key] = leader
                    continue
                if placement != "optimized":
                    raise ValueError(
                        f"unknown placement {placement!r}; choose 'leader', "
                        "'optimized' or an explicit mapping"
                    )

                # same strict-improvement decision rule as the
                # simulator's solver, so sim and native agree on moves
                from repro.cluster.placement_opt import _improves

                def cost_of(home: GroupKey) -> float:
                    return sum(
                        mpi.tier_atomic_penalty(_leaf_tier(leaf_paths[w], home))
                        for w in members
                    )

                best, best_cost = leader, cost_of(leader)
                for candidate in dict.fromkeys(leaf_paths[w] for w in members):
                    cost = cost_of(candidate)
                    if _improves(cost, best_cost):
                        best, best_cost = candidate, cost
                homes[key] = best
                continue
            choice = placement.get(key)
            if choice is None:
                homes[key] = leader
            elif isinstance(choice, int):
                if choice not in members:
                    raise ValueError(
                        f"worker {choice} is not a member of group {key!r}"
                    )
                homes[key] = leaf_paths[choice]
            else:
                path = tuple(choice)
                if path not in {leaf_paths[w] for w in members}:
                    raise ValueError(
                        f"leaf path {path!r} is outside group {key!r}"
                    )
                homes[key] = path
        return homes

    @staticmethod
    def _tier_paths(
        topology: Union[NodeSpec, ClusterSpec],
    ) -> List[Tuple[GroupKey, ...]]:
        """Per-core machine paths, one prefix tuple per tier.

        A :class:`NodeSpec` machine contributes ``((socket,), (socket,
        numa))`` per core (the node itself is the global queue); a
        :class:`ClusterSpec` contributes ``((node,), (node, socket),
        (node, socket, numa))``.
        """
        if isinstance(topology, NodeSpec):
            return [
                (
                    (topology.socket_of_core(core),),
                    (topology.socket_of_core(core), topology.numa_of_core(core)),
                )
                for core in range(topology.cores)
            ]
        if isinstance(topology, ClusterSpec):
            paths: List[Tuple[GroupKey, ...]] = []
            for node_index, node in enumerate(topology.nodes):
                for core in range(node.cores):
                    socket = node.socket_of_core(core)
                    numa = node.numa_of_core(core)
                    paths.append(
                        (
                            (node_index,),
                            (node_index, socket),
                            (node_index, socket, numa),
                        )
                    )
            return paths
        raise TypeError(
            f"topology must be a NodeSpec or ClusterSpec, "
            f"got {type(topology).__name__}"
        )

    def _take_tiered(
        self, q: _ThreadQueue, carve_root, child: int, worker: int
    ) -> Optional[Tuple[Any, int, int, int]]:
        """Take from ``q``, refilling through the tier tree when dry.

        The caller-side analogue of the simulator's ``_take_from``: the
        worker holds ``q``'s lock across the parent fetch (paper Fig. 1
        steps 1-2), and the parent fetch recurses — acquiring the
        parent's own lock — up to the root's ``carve_root``.  Lock order
        is strictly child -> parent, so the tiered locks cannot
        deadlock.  ``worker`` identifies the physical worker for the
        per-queue lock-acquisition ledger (the simulated-cost report).
        """
        with q.lock:
            q.acquisitions[worker] = q.acquisitions.get(worker, 0) + 1
            sub = q.take(child)
            while sub is None and not q.drained:
                if q.parent is None:
                    fetched = carve_root(q.parent_pe)
                else:
                    fetched = self._take_tiered(
                        q.parent, carve_root, q.parent_pe, worker
                    )
                # the root carves (start, size, step), a tier queue
                # takes (head, start, size, step)
                start, size, step = fetched[-3:] if fetched else (0, 0, -1)
                if size > 0:
                    q.deposits.append((start, size))
                sub = q.refill(child, step, start, size)
            return sub

    # ------------------------------------------------------------------
    def _execute(self, mode: str, worker_loop) -> NativeResult:
        chunks = ChunkLog()
        chunks_lock = threading.Lock()
        per_iter: Dict[int, int] = {pe: 0 for pe in range(self.n_workers)}
        per_busy: Dict[int, float] = {pe: 0.0 for pe in range(self.n_workers)}
        outputs: Optional[Dict[int, Any]] = {} if self.collect_outputs else None
        errors: List[BaseException] = []

        def record(pe: int, step: int, start: int, size: int) -> None:
            t0 = time.perf_counter()
            result = self.workload.execute(start, size)
            per_busy[pe] += time.perf_counter() - t0
            per_iter[pe] += size
            with chunks_lock:
                chunks.append(max(step, 0), start, size, pe)
                if outputs is not None:
                    outputs[start] = result

        def runner(pe: int) -> None:
            try:
                worker_loop(pe, record)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(pe,), name=f"native-w{pe}")
            for pe in range(self.n_workers)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        if errors:
            raise errors[0]
        result = NativeResult(
            workload=self.workload.name,
            mode=mode,
            n_workers=self.n_workers,
            wall_seconds=wall,
            chunks=chunks,
            per_worker_iterations=per_iter,
            per_worker_busy=per_busy,
            outputs=outputs,
        )
        result.verify(self.workload.n)
        return result
