"""Distributed chunk calculation (dCC): coordinator-free self-scheduling.

The follow-up to the paper's hierarchical design (Eleliemy & Ciorba,
"A Distributed Chunk Calculation Approach for Self-scheduling on
Distributed-memory Systems", arXiv 2101.07050) removes the work-queue
coordinator entirely.  The **whole** scheduling state is one integer —
the latest scheduling step — hosted in a single RMA window.  To obtain
work, a rank (MPI process index) issues one ``MPI_Fetch_and_op(step,
+1)`` and resolves its chunk **locally**:

* the hierarchical level stack is *flattened* ahead of time into the
  serial leaf-chunk sequence (level 0 carves the loop, each deeper
  level carves its parent's chunks), materialised once as start/size
  arrays via the memoised chunk-sequence machinery of
  :mod:`repro.core.technique_base`;
* the fetched step indexes those arrays — an O(1) lookup, no
  coordinator queue, no per-tier locks on the hot path.

Compared to :class:`~repro.models.mpi_mpi.MpiMpiModel` the produced
chunk *set* is identical for deterministic stacks (the differential
tests pin this); only the dynamic assignment of chunks to ranks
differs.  What changes is the traffic: every chunk costs one remote
atomic (latency in seconds each way plus serialised target
processing), so the single counter window sees ``total chunks``
atomics instead of the hierarchy's ``top-level chunks`` — cheap for
moderate worker counts, and contended exactly like the flat global
queue when thousands of workers hammer one NIC.  Any deterministic
technique flattens — STATIC, SS, GSS, TSS, FAC2, mFSC, TFSS, FISS,
VISS, and seeded RND (whose schedule is a pure function of the spec,
so every rank materialises the same sequence).  Adaptive or
PE-dependent techniques (TAP, AWF-*, AF, WF, ADAPT and ``ADAPT[...]``
ladders) need runtime feedback and therefore cannot be flattened;
requesting them raises ``ValueError``.

The counter protocol itself is :class:`~repro.models.mpi_mpi.MpiMpiModel`'s
depth-1 path: the flattened sequence becomes the global queue's
calculator (:class:`LeafSequence`), so the rank loop, the claims ledger
under faults (each fetched step's range is claimed inside the atomic's
critical section), the orphan pool and the counter window's failover
to the lowest live rank are shared with ``mpi+mpi`` and ``flat-mpi``,
in both engines.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.technique_base import ChunkCalculator
from repro.core.workqueue import WorkChunk
from repro.models.base import _Run
from repro.models.mpi_mpi import MpiMpiModel
from repro.smpi.world import MpiWorld

#: machine tier of each tier-group level, outermost first
_TIERS = ("node", "socket", "numa")


def _level_fanouts(run: _Run, world: MpiWorld) -> List[int]:
    """Child count per scheduling level under the machine-tier mapping.

    Mirrors :class:`~repro.models.mpi_mpi.MpiMpiModel`: depth 1
    schedules all ranks against the root technique; each deeper level
    carves for the single fanout of its tier's groups in
    :meth:`Placement.tier_groups
    <repro.cluster.topology.Placement.tier_groups>`.  dCC flattens the
    stack ahead of time, so every group of a tier must have the same
    child count — heterogeneous tiers would make the flattened sequence
    depend on which group received which chunk.
    """
    depth = run.spec.depth
    if depth == 1:
        return [world.size]
    groups = world.placement.tier_groups(depth).values()
    fanouts = [run.cluster.n_nodes]
    for tier in range(1, depth):
        counts = {group.fanout for group in groups if group.tier == tier}
        if len(counts) != 1:
            child = "ranks" if tier == depth - 1 else _TIERS[tier]
            raise ValueError(
                f"dcc flattens the level stack ahead of time and needs a "
                f"uniform machine: {child}-per-{_TIERS[tier - 1]} group "
                f"sizes differ ({sorted(counts)})"
            )
        fanouts.append(counts.pop())
    return fanouts


def _flatten_schedule(run: _Run, world: MpiWorld) -> List[Tuple[int, int]]:
    """Materialise the stack's serial leaf sequence as (start, size) pairs.

    Level 0 carves ``[0, n)`` with the root technique; each deeper
    level independently carves every parent chunk with a fresh
    calculator over (chunk size, tier fanout) — exactly the carving a
    hierarchical run performs at deposit time, minus the dynamic
    assignment.  Each level carves every *distinct* parent size once
    and reuses the carving for all parent chunks of that size, so an
    ``SS+SS`` loop builds one leaf calculator instead of one per
    iteration.
    """
    for index, level in enumerate(run.spec.levels):
        technique = level.technique
        if technique.adaptive or technique.pe_dependent:
            raise ValueError(
                f"dcc resolves chunks locally from a pre-materialised "
                f"sequence; adaptive/PE-dependent technique "
                f"{technique.name!r} at level {index} needs runtime "
                f"feedback — use approach='mpi+mpi' for it"
            )
    fanouts = _level_fanouts(run, world)
    segments: List[Tuple[int, int]] = [(0, run.workload.n)]
    for index, fanout in enumerate(fanouts):
        level = run.spec.levels[index]
        #: parent size -> its carving as a list of chunk sizes; every
        #: technique here is deterministic, so equal parents carve alike
        pieces: Dict[int, List[int]] = {}
        carved: List[Tuple[int, int]] = []
        for start, size in segments:
            sizes = pieces.get(size)
            if sizes is None:
                sizes = pieces[size] = _carve(
                    level, index, size, fanout, run.costs.chunk_calc
                )
            offset = start
            for chunk in sizes:
                carved.append((offset, chunk))
                offset += chunk
        segments = carved
    return segments


def _carve(
    level, index: int, size: int, fanout: int, chunk_overhead: float
) -> List[int]:
    """Chunk sizes of one ``size``-iteration parent chunk at scheduling
    level ``index`` with ``fanout`` children."""
    calc = level.make_calculator(size, fanout, chunk_overhead=chunk_overhead)
    if not calc.deterministic:
        raise ValueError(
            f"dcc requires deterministic chunk sequences; "
            f"{level.technique.name!r} at level {index} is not"
        )
    # Sequential carve rather than calc.sequence(): min-chunk wrapped
    # calculators are consumed step by step.
    chunk = WorkChunk(0, size, calc)
    sizes: List[int] = []
    while chunk.remaining > 0:
        sub = chunk.carve(None)
        if sub is None:
            raise ValueError(
                f"{level.technique.name!r} refused a chunk at step "
                f"{chunk.local_step} with {chunk.remaining} iterations left"
            )
        sizes.append(sub[1])
    return sizes


class LeafSequence(ChunkCalculator):
    """The flattened leaf sequence as a deterministic calculator.

    Step ``s`` is leaf chunk ``s``: the sequence is handed over
    materialised, so :meth:`GlobalQueue.resolve_step
    <repro.models.base.GlobalQueue.resolve_step>` serves it with the
    base class's list reads, and a step past the end reads as size 0.
    """

    def __init__(self, schedule: List[Tuple[int, int]], n: int, p: int):
        super().__init__("dcc", n, p)
        self._starts = [start for start, _ in schedule]
        self._sizes = [size for _, size in schedule]

    def total_steps(self) -> int:
        """Number of leaf chunks."""
        return len(self._sizes)


class DccModel(MpiMpiModel):
    """Distributed chunk calculation over one global step counter."""

    name = "dcc"

    def inter_pe_count(self, cluster, ppn: int) -> int:
        """Every rank schedules against the counter directly."""
        return cluster.n_nodes * ppn

    def _tiers(self, run: _Run) -> int:
        """Every rank talks to the counter directly: no tier queues, so
        a placement plan prices the counter window against a depth-1
        view of the stack."""
        return 1

    def _root_calculator(self, run: _Run, world: MpiWorld) -> ChunkCalculator:
        """The stack flattened ahead of time into its leaf sequence."""
        return LeafSequence(_flatten_schedule(run, world), run.workload.n, world.size)

    def _pinned(self, run: _Run) -> bool:
        """A flattened STATIC root is a plain sequence, not pinned."""
        return False

    def _collect_counters(self, run: _Run, queue, local_queues, plan) -> None:
        """The counter window's traffic (see :func:`collect_dcc_counters`)."""
        collect_dcc_counters(run, queue.window, queue.calc.total_steps(), plan)


def collect_dcc_counters(run: _Run, window, n_steps: int, plan=None) -> None:
    """Fill ``run.counters`` for a dCC run (shared scalar/cohort tail).

    Placement accounting: the counter window is the only shared
    object, so the priced queue traffic is exactly its atomic
    service time (no tier locks exist to add penalties).
    """
    run.counters["dcc_steps"] = n_steps
    run.counters["global_atomics"] = window.n_atomics
    run.counters["remote_atomics"] = window.n_remote_atomics
    run.counters["lock_penalty_s"] = 0.0
    run.counters["global_atomic_time_s"] = window.total_atomic_time_s
    run.counters["placement_cost_s"] = window.total_atomic_time_s
    run.counters["placement"] = (
        run.placement if isinstance(run.placement, str) else "explicit"
    )
    run.counters["window_homes"] = {"global": window.host_rank}
    if plan is not None:
        run.counters["placement_moved"] = plan.moved
        run.counters["placement_objective_s"] = plan.objective
