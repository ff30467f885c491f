"""The baseline: hierarchical DLS with the hybrid MPI+OpenMP approach.

One MPI process per compute node participates in the distributed chunk
calculation (same global work queue as the MPI+MPI model); the PE
index of the global level is the node index.  Each chunk is executed
by the process's OpenMP team using the selected ``schedule`` clause;
the **implicit barrier** that terminates every worksharing loop forces
all threads to wait for the slowest one before the master can request
the next chunk (paper Figure 2) — that idle time is the cost the
MPI+MPI approach eliminates.  All times are simulated seconds.

The intra-node technique is translated to an OpenMP schedule through
:meth:`repro.somp.schedule.ScheduleSpec.from_technique`.  With
``intel_runtime=True`` (matching the paper's software stack) only
STATIC/SS/GSS are accepted; TSS/FAC2 raise
:class:`~repro.somp.schedule.UnsupportedScheduleError` exactly as they
were unavailable in the paper's MPI+OpenMP experiments.

``nowait_selffetch=True`` switches to the paper's Section 6
future-work variant: threads skip the barrier and fetch chunks
themselves under a serialising mutex (ablation A-3, depth 2 only).

Deeper stacks map onto **nested OpenMP parallelism**, one nesting tier
per level between the node and the cores: a depth-3 stack (``X+Y+Z``)
nests the node's sockets, a depth-4 stack (``W+X+Y+Z``) nests sockets
and then each socket's NUMA domains.  Every leaf group (the node at
depth 2, a socket at depth 3, a NUMA domain at depth 4) owns one thread
team running the leaf ``schedule`` clause; the threads of a team are
the node's cores in that group.  One recursive driver runs every depth:
a chunk given to an inner group opens one worksharing round in which
the group's children self-schedule sub-chunks carved by the next
level's technique, and the round ends in the group's own implicit
barrier.  A group's first child is driven by the group's own driver
(the rank process, for the node); every other child has a persistent
*driver* process, thread 0 of its first team.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.cluster.interconnect import Tier, tier_between
from repro.core.workqueue import WorkChunk
from repro.models.base import ExecutionModel, GlobalQueue, _Run
from repro.sim.primitives import Overhead, SimEvent
from repro.sim.resources import Barrier
from repro.smpi.world import MpiWorld, RankCtx
from repro.somp.schedule import ScheduleSpec
from repro.somp.team import OmpTeam


class _Nesting(NamedTuple):
    """Naming and pricing of the groups nested at one tier below a group."""

    #: child-name letter (``n0`` -> ``n0.s1``)
    letter: str
    #: locality tier the children's barrier spans
    span: Tier
    #: barrier-name prefix
    barrier_prefix: str
    #: counter of worksharing rounds opened across the children
    counter: str


#: the nesting tiers below the node, outermost first
_NESTING = (
    _Nesting("s", Tier.SAME_NODE, "omp-outer", "omp_outer_rounds"),
    _Nesting("m", Tier.SAME_SOCKET, "omp-inner", "omp_inner_rounds"),
)


def _team_barrier_penalty(run: "_Run", node_spec, cores) -> float:
    """Locality surcharge of a thread team's implicit barrier.

    The team's span is the widest tier between its first core and any
    other member (classified by the cascade's single owner,
    :func:`repro.cluster.interconnect.tier_between`): a team spanning
    several sockets pays the same-node tier penalty per barrier,
    spanning several NUMA domains of one socket pays the same-socket
    penalty, and a single-NUMA team pays nothing.  Zero with the
    default (distance-blind) cost knobs.
    """
    cores = list(cores)
    first = (0, node_spec.socket_of_core(cores[0]), node_spec.numa_of_core(cores[0]))
    tier = max(
        tier_between(
            first, (0, node_spec.socket_of_core(core), node_spec.numa_of_core(core))
        )
        for core in cores
    )
    return run.costs.mpi.tier_atomic_penalty(tier)


@dataclass
class _Group:
    """One worksharing group of a node: the node, a socket or a NUMA domain.

    A leaf group owns the thread team; an inner group owns the barrier
    its children meet at after every round and the gate that hands each
    round to their drivers.
    """

    #: ``n{node}[.s{socket}][.m{numa}]``, also the leaf team's name
    name: str
    #: nesting tier: 0 for the node, 1 for a socket, 2 for a NUMA domain
    tier: int
    children: List["_Group"] = field(default_factory=list)
    team: Optional[OmpTeam] = None
    #: the leaf team's ``body_time(start, size, tid)``
    body_time: Optional[Callable[[int, int, int], float]] = None
    barrier: Optional[Barrier] = None
    #: seconds of the round-ending barrier, locality penalty included
    barrier_cost: float = 0.0
    gate: Optional[SimEvent] = None
    rounds: int = 0


class MpiOpenMpModel(ExecutionModel):
    """Hierarchical DLS via hybrid MPI+OpenMP (the existing approach)."""

    name = "mpi+openmp"

    def __init__(self, intel_runtime: bool = False, nowait_selffetch: bool = False):
        #: restrict schedules to the Intel runtime's static/dynamic/guided
        self.intel_runtime = intel_runtime
        #: use the nowait future-work execution style (ablation A-3)
        self.nowait_selffetch = nowait_selffetch

    @staticmethod
    def _team_thread_stats(team: OmpTeam):
        """Aggregate per-thread executed/grab counts over a team's phases."""
        executed: Dict[int, int] = {}
        grabs: Dict[int, int] = {}
        for phase in team.phases:
            for tid, n_it in phase.executed_per_thread.items():
                executed[tid] = executed.get(tid, 0) + n_it
            for tid, n_g in phase.grabs.items():
                grabs[tid] = grabs.get(tid, 0) + n_g
        return executed, grabs

    def _execute(self, run: _Run) -> None:
        depth = run.spec.depth
        if depth not in (2, 3, 4):
            raise ValueError(
                "mpi+openmp composes one MPI level with OpenMP worksharing: "
                "use a depth-2 stack (node -> core), a depth-3 stack "
                "(node -> socket -> core) or a depth-4 stack "
                f"(node -> socket -> numa -> core); got depth {depth} "
                f"({run.spec.label})"
            )
        if self.nowait_selffetch and depth != 2:
            raise ValueError(
                "the nowait self-fetch variant (ablation A-3) is "
                "defined for two-level stacks only; got "
                f"{run.spec.label}"
            )
        run.n_sched_levels = depth
        sim, costs = run.sim, run.costs
        world = MpiWorld(sim, run.cluster, ppn=1, costs=costs)
        inter_calc = run.spec.inter.make_calculator(
            run.workload.n,
            run.cluster.n_nodes,
            chunk_overhead=costs.chunk_calc,
        )
        queue = GlobalQueue(
            world,
            inter_calc,
            run.workload.n,
            host_rank=0,
            pinned=run.spec.inter.technique.pinned_per_pe,
        )
        leaf = run.spec.intra  # the last level drives the schedule clause
        omp_spec = ScheduleSpec.from_technique(
            leaf.technique.name,
            extensions=not self.intel_runtime,
        )
        if leaf.min_chunk > 1:
            omp_spec = ScheduleSpec(omp_spec.kind, leaf.min_chunk)
        n_threads = run.ppn
        nesting = _NESTING[: depth - 2]
        # outer worksharing grab: atomic capture + the level's chunk formula
        grab_cost = costs.omp.atomic + costs.chunk_calc

        #: node -> its leaf teams in (socket, numa) order
        teams: Dict[int, List[OmpTeam]] = {}
        finish_times: Dict[int, float] = {}
        rounds = [0] * len(nesting)

        def node_main(ctx: RankCtx):
            node = ctx.node
            node_spec = run.cluster.node_of(node)
            tier_of_core = (node_spec.socket_of_core, node_spec.numa_of_core)
            node_teams = teams[node] = []

            def build(name: str, tier: int, cores: List[int]) -> _Group:
                group = _Group(name, tier)
                if tier == len(nesting):
                    group.team = OmpTeam(
                        sim,
                        len(cores),
                        costs,
                        name=name,
                        weights=None,
                        trace=run.trace,
                        barrier_penalty=_team_barrier_penalty(run, node_spec, cores),
                    )
                    node_teams.append(group.team)

                    def body_time(start: int, size: int, tid: int) -> float:
                        core = cores[tid]
                        run.record_subchunk(0, start, size, pe=node * n_threads + core)
                        return run.exec_time(start, size, node, core)

                    group.body_time = body_time
                    return group
                nest = nesting[tier]
                parts: Dict[int, List[int]] = {}
                for core in cores:
                    parts.setdefault(tier_of_core[tier](core), []).append(core)
                group.children = [
                    build(f"{name}.{nest.letter}{key}", tier + 1, parts[key])
                    for key in sorted(parts)
                ]
                n_children = len(group.children)
                penalty = (
                    costs.mpi.tier_atomic_penalty(nest.span) if n_children > 1 else 0.0
                )
                group.barrier_cost = costs.omp.barrier_time(n_children) + penalty
                group.barrier = Barrier(
                    sim, n_children, name=f"{nest.barrier_prefix}.{name}"
                )
                group.gate = sim.event(f"{group.barrier.name}.round0")
                return group

            def execute(group: _Group, start: int, size: int):
                """Run ``size`` iterations from ``start`` on ``group``."""
                if group.team is not None:
                    yield from group.team.parallel_for(
                        start, size, omp_spec, group.body_time
                    )
                    return
                round_ = WorkChunk(
                    start,
                    size,
                    run.spec.levels[group.tier + 1].make_calculator(
                        size, len(group.children), chunk_overhead=costs.chunk_calc
                    ),
                )
                group.rounds += 1
                rounds[group.tier] += 1
                gate, group.gate = group.gate, sim.event(
                    f"{group.barrier.name}.round{group.rounds}"
                )
                gate.trigger(round_)
                yield from drive(group, 0, round_)

            def drive(group: _Group, pos: int, round_: WorkChunk):
                """Child ``pos``'s self-scheduled share of one round."""
                child = group.children[pos]
                while True:
                    yield Overhead(grab_cost)
                    grabbed = round_.carve(pos)
                    if grabbed is None:
                        break
                    sub_start, sub_size, step = grabbed
                    run.record_level_chunk(
                        group.tier + 1, step, sub_start, sub_size, pe=pos
                    )
                    t0 = sim.now
                    yield from execute(child, sub_start, sub_size)
                    if round_.calc.listens:
                        round_.calc.record(
                            pos, sub_size, compute_time=sim.now - t0
                        )
                # the worksharing loop's own implicit barrier
                yield Overhead(group.barrier_cost)
                yield from group.barrier.wait()

            def driver_main(group: _Group, pos: int):
                gate = group.gate
                while True:
                    round_ = yield gate
                    gate = group.gate
                    if round_ is None:
                        return
                    yield from drive(group, pos, round_)

            def first_team(group: _Group) -> OmpTeam:
                while group.team is None:
                    group = group.children[0]
                return group.team

            root = build(f"n{node}", 0, list(range(n_threads)))
            first_team(root).driver_process = ctx.process
            # every child but the first gets a persistent driver (the first
            # is driven by its parent's driver); the loop appends to
            # `inner` as it goes, so drivers are spawned tier by tier
            inner = [] if root.team is not None else [root]
            for group in inner:
                for pos, child in enumerate(group.children):
                    if pos > 0:
                        first_team(child).driver_process = sim.spawn(
                            driver_main(group, pos), name=f"{child.name}.drv"
                        )
                    if child.team is None:
                        inner.append(child)

            if self.nowait_selffetch:
                yield from self._selffetch_main(
                    run, ctx, queue, root.team, omp_spec, root.body_time
                )
            else:
                while True:
                    step, start, size = yield from queue.next_chunk(ctx, pe=node)
                    if size <= 0:
                        break
                    run.record_chunk(step, start, size, pe=node)
                    t0 = sim.now
                    yield from execute(root, start, size)
                    # runtime feedback for adaptive inter-node techniques:
                    # the node processed `size` iterations in (now - t0)
                    if inter_calc.listens:
                        inter_calc.record(node, size, compute_time=sim.now - t0)
            finish_times[node] = sim.now
            for group in inner:
                group.gate.trigger(None)
            for team in node_teams:
                team.shutdown()
            # the recursive closures reference themselves through their
            # cells; emptying the cells frees the run without the cyclic
            # collector
            del build, execute, drive

        world.run(node_main)

        # Per-worker stats: each OpenMP thread of each leaf team is a
        # worker; thread 0 of a team is its driver process.
        for ctx in world.contexts:
            node = ctx.node
            for team in teams[node]:
                executed, grabs = self._team_thread_stats(team)
                thread_processes = [team.driver_process, *team.threads]
                for tid, process in enumerate(thread_processes):
                    run.record_worker(
                        name=f"{team.name}.t{tid}",
                        node=node,
                        finish_time=finish_times[node],
                        process=process,
                        n_chunks=grabs.get(tid, 0),
                        n_iterations=executed.get(tid, 0),
                    )
        all_teams = [team for node_teams in teams.values() for team in node_teams]
        run.counters["global_atomics"] = queue.window.n_atomics
        run.counters["remote_atomics"] = queue.window.n_remote_atomics
        run.counters["omp_phases"] = sum(len(t.phases) for t in all_teams)
        run.counters["omp_grabs"] = sum(t.stats()["total_grabs"] for t in all_teams)
        for nest, count in zip(nesting, rounds):
            run.counters[nest.counter] = count

    # ------------------------------------------------------------------
    def _selffetch_main(self, run, ctx, queue, team, omp_spec, body_time):
        """Ablation A-3: threads fetch chunks themselves (nowait style)."""

        def fetch():
            step, start, size = yield from queue.next_chunk(ctx, pe=ctx.node)
            if size <= 0:
                return None
            run.record_chunk(step, start, size, pe=ctx.node)
            return (start, size)

        yield from team.parallel_region_selffetch(omp_spec, body_time, fetch)
