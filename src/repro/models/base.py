"""Shared machinery for execution models.

Each model builds a simulated run of one parallel loop: a simulator, an
MPI world over a cluster, per-worker speed factors (node speed x static
core noise), jittered execution times, and a uniform
:class:`RunResult`.  The chunk-dispensing protocols of the distributed
chunk-calculation approach (deterministic step counter vs adaptive
scheduled-count, and pinned STATIC) live here because every model needs
them.

Conventions: times and costs are simulated seconds.  Workers are MPI
ranks numbered node-major, ``rank = node * ppn + core``; per-core
tables (speeds, fault factors) use that index.  The inter-node level
of a hierarchical model hands chunks to PEs identified by node index;
the flat baselines schedule ranks directly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, DefaultDict, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.costs import CostModel, DEFAULT_COSTS
from repro.cluster.faults import FaultModel
from repro.cluster.machine import ClusterSpec
from repro.cluster.noise import MILD_NOISE, NoiseModel
from repro.core.chunking import ChunkLog, verify_schedule
from repro.core.hierarchy import HierarchicalSpec
from repro.core.metrics import LoadMetrics, WorkerStats, compute_metrics
from repro.core.technique_base import ChunkCalculator
from repro.core.trace import Trace
from repro.sim.engine import Simulator, drain
from repro.sim.primitives import Overhead, Timeout
from repro.smpi.rma import Window
from repro.smpi.world import MpiWorld, RankCtx
from repro.workloads.base import Workload


@dataclass
class RunResult:
    """Outcome of one simulated loop execution."""

    approach: str
    workload: str
    spec_label: str
    n_nodes: int
    ppn: int
    seed: int
    #: the headline number (paper Figures 4-7): loop parallel time
    parallel_time: float
    metrics: LoadMetrics
    #: inter-node level chunks (step, start, size, pe=node)
    chunks: ChunkLog = field(default_factory=ChunkLog, repr=False)
    #: worker-level sub-chunk assignments (present if collect_chunks)
    subchunks: ChunkLog = field(default_factory=ChunkLog, repr=False)
    #: chunk logs per scheduling level, root first (present if
    #: collect_chunks).  ``level_chunks[0]`` is ``chunks`` and
    #: ``level_chunks[-1]`` is ``subchunks`` for two-level runs; deeper
    #: stacks expose their intermediate tiers (e.g. per-socket chunks)
    #: in between.  Every level-``i+1`` chunk lies inside exactly one
    #: level-``i`` chunk — the containment invariant the property suite
    #: checks.
    level_chunks: List[ChunkLog] = field(default_factory=list, repr=False)
    trace: Optional[Trace] = field(default=None, repr=False)
    #: runtime counters (lock contention, atomics, fetches, ...)
    counters: Dict[str, Any] = field(default_factory=dict)
    n_events: int = 0

    @property
    def workers(self) -> int:
        """Number of workers that reported statistics."""
        return self.metrics and len(self.metrics.workers)

    def describe(self) -> str:
        """One-line summary: approach, stack, workload, size and time."""
        return (
            f"{self.approach:<12} {self.spec_label:<14} {self.workload:<18} "
            f"nodes={self.n_nodes:<3} ppn={self.ppn:<3} "
            f"T={self.parallel_time:.4g}s"
        )


class ExecutionModel:
    """Base class: model-specific ``_execute`` over shared scaffolding."""

    name: str = "?"
    #: whether the model consults the ``placement=`` knob (window-home
    #: optimisation); models that leave it False accept only the
    #: ``"leader"`` default and raise otherwise, so a requested
    #: optimisation can never be silently ignored
    supports_placement: bool = False
    #: whether the model implements failure-aware scheduling (claims
    #: ledger + recovery); models that leave it False reject an *active*
    #: fault model instead of silently losing iterations
    supports_faults: bool = False

    def inter_pe_count(self, cluster: ClusterSpec, ppn: int) -> int:
        """Number of PEs at the inter (first) scheduling level.

        Hierarchical models schedule across *nodes*; the flat and
        master-worker baselines schedule across individual workers.
        Drivers like :class:`repro.core.timestepping.TimeSteppedLoop`
        use this to size per-PE weight vectors.
        """
        return cluster.n_nodes

    def run(
        self,
        workload: Workload,
        cluster: ClusterSpec,
        spec: HierarchicalSpec,
        ppn: Optional[int] = None,
        seed: int = 0,
        collect_trace: bool = False,
        collect_chunks: bool = True,
        costs: Optional[CostModel] = None,
        noise: Optional[NoiseModel] = None,
        verify: bool = True,
        placement: Any = "leader",
        faults: Optional[FaultModel] = None,
        max_sim_time: Optional[float] = None,
        engine: str = "scalar",
    ) -> RunResult:
        """Simulate one loop execution; see :func:`repro.api.run_hierarchical`.

        ``engine`` selects the event-execution strategy: ``"scalar"``
        (the classic one-process-per-rank discrete-event loop) or
        ``"cohort"`` (the rank-aggregated macro-event engine of
        :mod:`repro.sim.cohorts`, which is bit-exact on eligible
        deterministic configurations and falls back to the scalar path
        whole-run otherwise).
        """
        engine_name = str(engine).strip().lower()
        if engine_name not in ("scalar", "cohort"):
            raise ValueError(
                f"unknown engine {engine!r}; choose 'scalar' or 'cohort'"
            )
        if (
            not self.supports_placement
            and not (isinstance(placement, str) and placement == "leader")
        ):
            raise ValueError(
                f"{self.name} places windows at tier leaders only; "
                f"placement={placement!r} requires "
                f"{_models_with('supports_placement')}"
            )
        if faults is not None and faults.active and not self.supports_faults:
            raise ValueError(
                f"{self.name} has no failure-aware scheduling path; an "
                f"active fault model requires {_models_with('supports_faults')}"
            )
        run = _Run(
            model=self,
            workload=workload,
            cluster=cluster,
            spec=spec,
            ppn=ppn,
            seed=seed,
            collect_trace=collect_trace,
            collect_chunks=collect_chunks,
            costs=costs or DEFAULT_COSTS,
            noise=noise or MILD_NOISE,
            placement=placement,
            faults=faults,
            max_sim_time=max_sim_time,
        )
        try:
            if engine_name == "cohort":
                from repro.sim.cohorts import execute_cohort

                execute_cohort(self, run)
            else:
                self._execute(run)
            return run.finish(verify=verify)
        finally:
            run.sim.close()

    # subclasses implement: build rank mains, launch, record stats ------
    def _execute(self, run: "_Run") -> None:
        raise NotImplementedError


def _models_with(flag: str) -> str:
    """The registered models whose class ``flag`` is set, as a phrase
    (``"the mpi+mpi or dcc model"``)."""
    from repro.models import MODELS

    *rest, last = [name for name, model in MODELS.items() if getattr(model, flag)]
    listed = f"{', '.join(rest)} or {last}" if rest else last
    return f"the {listed} model"


class _Run:
    """Mutable state for one simulated execution."""

    def __init__(
        self,
        model: ExecutionModel,
        workload: Workload,
        cluster: ClusterSpec,
        spec: HierarchicalSpec,
        ppn: Optional[int],
        seed: int,
        collect_trace: bool,
        collect_chunks: bool,
        costs: CostModel,
        noise: NoiseModel,
        placement: Any = "leader",
        faults: Optional[FaultModel] = None,
        max_sim_time: Optional[float] = None,
    ):
        self.model = model
        self.workload = workload
        self.cluster = cluster
        self.spec = spec
        self.seed = seed
        self.costs = costs
        self.noise = noise
        #: window-placement knob ("leader" | "optimized" | explicit map)
        self.placement = placement
        #: fault schedule (None, or an inactive model, keeps every code
        #: path bit-identical to the fault-free engine)
        self.faults = faults
        self.faults_active = faults is not None and faults.active
        #: engine watchdog deadline in simulated seconds (None = off)
        self.max_sim_time = max_sim_time
        self.collect_chunks = collect_chunks
        self.sim = Simulator(seed=seed)
        self.trace: Optional[Trace] = Trace() if collect_trace else None
        self.ppn = ppn if ppn is not None else min(n.cores for n in cluster.nodes)
        # static per-core speed factors: node nominal speed x silicon noise
        rng = self.sim.rng(f"core-noise.{noise.seed_tag}")
        per_core = noise.core_factor(rng, cluster.n_nodes * self.ppn)
        nominal = np.repeat([n.core_speed for n in cluster.nodes], self.ppn)
        #: effective core speeds, indexed by ``node * ppn + core``
        self.core_speed: List[float] = (nominal * per_core).tolist()
        #: next chunk-jitter factor, or None without jitter (factor 1)
        self._next_jitter = noise.jitter_source(self.sim)
        # recorded outcomes
        self.chunks = ChunkLog()
        self.subchunks = ChunkLog()
        #: chunks of intermediate scheduling levels (level index -> log);
        #: level 0 lands in ``chunks`` and the leaf in ``subchunks``
        self.mid_chunks: DefaultDict[int, ChunkLog] = defaultdict(ChunkLog)
        #: number of scheduling levels the model actually composed
        #: (models set this; single-level baselines use 1)
        self.n_sched_levels = 2
        self.worker_stats: List[WorkerStats] = []
        self.counters: Dict[str, Any] = {}
        self.executed_iterations = 0
        #: the workload's plain-Python prefix sums (``n + 1`` entries)
        self._cost_prefix: List[float] = workload.cost_prefix()
        # -- failure-aware scheduling state (inert when faults_active
        # is False: nothing below is ever consulted) ------------------
        #: claims ledger: rank -> list of in-flight (step, start, size)
        #: ranges that rank has fetched/taken but not yet deposited or
        #: executed.  Every transition in/out happens with no yield in
        #: between, so a crash (which lands only at yields) always sees
        #: a consistent ledger.
        self.claims: Dict[int, List[Tuple[int, int, int]]] = {}
        #: reclaimed ranges awaiting re-execution (flat protocols:
        #: depth-1 mpi+mpi, flat-mpi, dcc, master-worker)
        self.orphans: List[Tuple[int, int, int]] = []
        #: ranks confirmed crash-stopped (filled by the injector)
        self.dead_ranks: set = set()
        self.fault_counters: Dict[str, int] = {
            "failures_injected": 0,
            "chunks_reexecuted": 0,
            "failovers": 0,
            "lock_leases_broken": 0,
        }
        if self.faults_active:
            self.faults.validate(cluster.n_nodes * self.ppn)
            self.fault_counters["failures_injected"] += len(
                self.faults.slowdowns
            ) + len(self.faults.stalls)
            self._pending_stalls: Dict[int, list] = {
                rank: self.faults.stalls_of(rank)
                for rank in {s.rank for s in self.faults.stalls}
            }
        else:
            self._pending_stalls = {}

    # -- timing helpers --------------------------------------------------
    def exec_time(self, start: int, size: int, node: int, core: int) -> float:
        """Simulated duration of iterations [start, start+size) on a core.

        The per-chunk hot path: nominal cost from the workload's
        plain-Python prefix sums, one factor from the buffered jitter
        stream, and the core's speed — no NumPy scalar arithmetic.
        Out-of-range blocks raise :meth:`Workload.block_cost`'s
        ``IndexError``.
        """
        prefix = self._cost_prefix
        end = start + size
        if size < 0 or start < 0 or end >= len(prefix):
            self.workload.block_cost(start, size)  # raises IndexError
        nominal = prefix[end] - prefix[start]
        if self._next_jitter is not None:
            nominal *= self._next_jitter()
        duration = nominal / self.core_speed[node * self.ppn + core]
        if self.faults_active:
            # Fault factors apply *after* the jitter draw so the RNG
            # stream consumption (and thus every other rank's noise) is
            # unchanged by the fault model.
            rank = node * self.ppn + core
            duration /= self.faults.speed_factor(rank, self.sim.now)
            stalls = self._pending_stalls.get(rank)
            if stalls:
                # consume every stall overlapping this execution; adding
                # the stall extends the chunk, which may swallow the
                # next stall too
                while stalls and stalls[0].time <= self.sim.now + duration:
                    duration += stalls.pop(0).duration
        return duration

    # -- failure-aware bookkeeping ---------------------------------------
    def claim(self, rank: int, step: int, start: int, size: int) -> None:
        """Register an in-flight range owned by ``rank`` (no-op unless
        faults are active; callers guarantee no yield since the range
        was fetched/taken)."""
        if self.faults_active and size > 0:
            self.claims.setdefault(rank, []).append((step, start, size))

    def release_claim(self, rank: int, step: int, start: int, size: int) -> None:
        """Drop a claim once its range was deposited or executed."""
        if not self.faults_active:
            return
        ranges = self.claims.get(rank)
        if ranges:
            try:
                ranges.remove((step, start, size))
            except ValueError:
                pass

    # -- recording --------------------------------------------------------
    def record_chunk(self, step: int, start: int, size: int, pe: int) -> None:
        if self.collect_chunks:
            self.chunks.append(step, start, size, pe)

    def record_level_chunk(
        self, level: int, step: int, start: int, size: int, pe: int
    ) -> None:
        """Record a chunk carved at scheduling ``level`` (0 = root).

        Root chunks land in :attr:`chunks` exactly as before; chunks of
        intermediate levels (the socket tier of a three-level stack) go
        to per-level logs surfaced as ``RunResult.level_chunks``.
        The leaf level is recorded through :meth:`record_subchunk`.
        """
        if level == 0:
            self.record_chunk(step, start, size, pe)
        elif self.collect_chunks:
            self.mid_chunks[level].append(step, start, size, pe)

    def record_subchunk(self, step: int, start: int, size: int, pe: int) -> None:
        self.executed_iterations += size
        if self.collect_chunks:
            self.subchunks.append(step, start, size, pe)

    def record_worker(
        self,
        name: str,
        node: int,
        finish_time: float,
        process,
        n_chunks: int,
        n_iterations: int,
    ) -> None:
        self.worker_stats.append(
            WorkerStats(
                name=name,
                node=node,
                finish_time=finish_time,
                compute_time=process.compute_time,
                overhead_time=process.overhead_time,
                idle_time=process.idle_time + process.wait_time,
                n_chunks=n_chunks,
                n_iterations=n_iterations,
            )
        )

    # -- finalisation ------------------------------------------------------
    def finish(self, verify: bool = True) -> RunResult:
        if verify and self.executed_iterations != self.workload.n:
            raise AssertionError(
                f"{self.model.name}: executed {self.executed_iterations} of "
                f"{self.workload.n} iterations — scheduling bug"
            )
        if verify and self.collect_chunks and self.subchunks:
            verify_schedule(self.subchunks, self.workload.n)
        if self.faults is not None:
            self.counters.update(self.fault_counters)
            self.counters["dead_ranks"] = sorted(self.dead_ranks)
        metrics = compute_metrics(self.worker_stats)
        if self.collect_chunks:
            if self.n_sched_levels <= 1:
                level_chunks = [self.subchunks]
            else:
                level_chunks = [
                    self.chunks,
                    *(
                        self.mid_chunks.get(level, ChunkLog())
                        for level in range(1, self.n_sched_levels - 1)
                    ),
                    self.subchunks,
                ]
        else:
            level_chunks = []
        return RunResult(
            approach=self.model.name,
            workload=self.workload.name,
            spec_label=self.spec.label,
            n_nodes=self.cluster.n_nodes,
            ppn=self.ppn,
            seed=self.seed,
            parallel_time=metrics.parallel_time,
            metrics=metrics,
            chunks=self.chunks,
            subchunks=self.subchunks,
            level_chunks=level_chunks,
            trace=self.trace,
            counters=self.counters,
            n_events=self.sim.n_events_processed,
        )


class GlobalQueue:
    """The distributed chunk-calculation *global work queue*.

    Wraps an RMA window with the two dispensing protocols:

    * **deterministic** techniques: a single ``MPI_Fetch_and_op`` on the
      ``step`` counter; size and start derive locally from the step
      (closed form / memoised serial sequence);
    * **adaptive / PE-dependent** techniques: fetch-and-increment the
      step, compute the size from the calculator's runtime state, then
      fetch-and-add the size to the ``scheduled`` counter — the fetched
      old value is the chunk start.  Interleavings hand out relabelled
      but still disjoint, covering ranges;
    * **pinned** STATIC: PE ``pe`` takes exactly chunk ``pe`` without
      touching the window (one scheduling round, as in the paper).
    """

    def __init__(
        self,
        world: MpiWorld,
        calc: ChunkCalculator,
        n: int,
        host_rank: int = 0,
        pinned: bool = False,
        run: "Optional[_Run]" = None,
    ):
        self.world = world
        self.calc = calc
        self.n = n
        self.pinned = pinned
        self.window: Window = world.create_window(
            host_rank, {"step": 0, "scheduled": 0}
        )
        self._pinned_taken: Dict[int, bool] = {}
        #: owning run — enables the claims ledger under active faults;
        #: None (or an inactive fault model) leaves every path untouched
        self._run = run

    def resolve_step(self, step: int) -> "Tuple[int, int, int]":
        """Resolve a fetched ``step`` to ``(step, start, size)`` locally.

        The deterministic dispensing rule shared by the scalar and
        cohort engines: size and start derive from the step alone, and
        a calculator materialised for a larger loop than this queue
        serves never hands out iterations beyond ``n``.  ``size == 0``
        signals exhaustion (with ``start == n``).
        """
        size = self.calc.size_at(step)
        if size <= 0:
            return (step, self.n, 0)
        start = self.calc.start_at(step)
        size = min(size, self.n - start)
        if size <= 0:
            return (step, self.n, 0)
        return (step, start, size)

    def next_chunk(self, ctx: RankCtx, pe: int):
        """Obtain the next chunk for ``pe``; returns (step, start, size)
        with size == 0 when the loop is exhausted (generator)."""
        chunk_calc_cost = self.world.costs.chunk_calc
        run = self._run
        claims_on = run is not None and run.faults_active
        if self.pinned:
            yield Overhead(chunk_calc_cost)
            if self._pinned_taken.get(pe):
                return (-1, self.n, 0)
            self._pinned_taken[pe] = True
            size = self.calc.size_at(pe)
            start = self.calc.start_at(pe)
            size = min(size, self.n - start)
            if claims_on:
                run.claim(ctx.rank, pe, start, size)
            return (pe, start, size)
        if self.calc.deterministic:
            if claims_on:
                # The range of step S is fixed the instant the atomic
                # commits; claim it *inside* the atomic's critical
                # section (no yield in between) so a crash during the
                # fetch's return latency cannot strand the range.
                calc = self.calc
                rank = ctx.rank
                n_total = self.n

                def committed(old: int) -> None:
                    begin = calc.start_at(old)
                    carved = min(calc.size_at(old), n_total - begin)
                    if carved > 0:
                        run.claim(rank, old, begin, carved)

                step = yield from self.window.fetch_and_op(
                    ctx, "step", 1, on_commit=committed
                )
            else:
                step = yield from self.window.fetch_and_op(ctx, "step", 1)
            yield Overhead(chunk_calc_cost)
            return self.resolve_step(step)
        # adaptive: step counter + scheduled-count protocol
        step = yield from self.window.fetch_and_op(ctx, "step", 1)
        yield Overhead(chunk_calc_cost)
        size = self.calc.size_at(step, pe=pe)
        if size <= 0:
            return (step, self.n, 0)
        if claims_on:
            # Same reasoning as above: the [old, old+size) range is
            # reserved the instant the ``scheduled`` atomic commits.
            rank, n_total = ctx.rank, self.n

            def reserved(old: int) -> None:
                run.claim(rank, step, old, max(0, min(size, n_total - old)))

            start = yield from self.window.fetch_and_op(
                ctx, "scheduled", size, on_commit=reserved
            )
        else:
            start = yield from self.window.fetch_and_op(ctx, "scheduled", size)
        size = max(0, min(size, self.n - start))
        return (step, start, size)


# ---------------------------------------------------------------------------
# fault injection scaffolding (shared by the failure-aware models)
# ---------------------------------------------------------------------------


def _fault_injector(run: _Run, world: MpiWorld, recover):
    """Engine process that executes the fault schedule (generator).

    Crash-stop events become first-class simulation events: at each
    crash time the victim's process is killed (its generator is closed,
    so in-flight atomics complete and the rank goes silent), and one
    ``detection_latency`` later the model's ``recover(rank)`` generator
    runs — breaking leases, failing over windows and re-depositing the
    victim's claimed ranges.  Fail-slow and stall events need no
    injector action (they are consulted passively by
    :meth:`_Run.exec_time`).
    """
    faults = run.faults
    timeline = []
    for crash in faults.crash_timeline():
        timeline.append((crash.time, 0, crash.rank))
        timeline.append((crash.time + faults.detection_latency, 1, crash.rank))
    timeline.sort(key=lambda event: (event[0], event[1], event[2]))
    now = 0.0
    for time, kind, rank in timeline:
        if time > now:
            yield Timeout(time - now)
            now = time
        if kind == 0:
            process = world.contexts[rank].process
            if process is not None and run.sim.kill(process):
                run.dead_ranks.add(rank)
                run.fault_counters["failures_injected"] += 1
        elif rank in run.dead_ranks and recover is not None:
            yield from recover(rank)


def run_world(run: _Run, world: MpiWorld, main, recover=None, name_prefix="rank"):
    """Launch rank mains, arm fault injection if active, and drain.

    The fault-free path is exactly ``world.run`` — same call sequence,
    same event stream.  With an active fault model the ranks are
    launched first, then the injector process is spawned (so rank spawn
    order — which defines execution order at t=0 — is unchanged), and
    the drain tolerates crash-stopped processes (``kill`` marks them
    not-alive).
    """
    if not run.faults_active:
        return world.run(main, name_prefix, max_sim_time=run.max_sim_time)
    processes = world.launch(main, name_prefix)
    run.sim.spawn(_fault_injector(run, world, recover), name="fault-injector")
    drain(run.sim, processes, max_sim_time=run.max_sim_time)
    return processes
