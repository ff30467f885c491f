"""High-level convenience API.

Wraps the execution models behind two functions so that the common case
(run one hierarchical combination on a cluster and read the metrics)
is a single call.  Imports of the heavier layers happen lazily so that
``import repro`` stays cheap for users who only need the technique
calculators.

Unit convention: every time — ``max_sim_time``, fault times, the
returned ``parallel_time`` — is in simulated seconds.  Index
convention: ``ppn`` ranks run on each node, and ranks are global
(``0 .. nodes*ppn-1``) wherever an argument names one — an explicit
placement map's window homes, a fault event's victim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import ClusterSpec
    from repro.core.hierarchy import HierarchicalSpec
    from repro.models.base import ExecutionModel, RunResult
    from repro.workloads.base import Workload

def __getattr__(name: str) -> Any:
    """``APPROACHES``: the canonical approach names of
    :data:`repro.models.MODELS`, read on first use so that importing
    this module stays cheap."""
    if name == "APPROACHES":
        from repro.models import MODELS

        return tuple(MODELS)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _spelling(name: str) -> str:
    """Normalise an approach spelling: case, ``_``, ``-`` and spaces
    do not count."""
    return name.strip().lower().replace("_", "").replace("-", "").replace(" ", "")


def _resolve_model(approach: Union[str, "ExecutionModel"]) -> "ExecutionModel":
    """The model an ``approach`` names; an instance is used as given.

    A name matches a registered model's canonical name in any
    :func:`_spelling`, with or without its ``+``.
    """
    if not isinstance(approach, str):
        return approach  # an ExecutionModel instance, used as given
    from repro.models import MODELS

    key = _spelling(approach)
    for name, model in MODELS.items():
        if key in (_spelling(name), _spelling(name).replace("+", "")):
            return model()
    raise ValueError(f"unknown approach {approach!r}; choose from {tuple(MODELS)}")


def run_hierarchical(
    workload: "Workload",
    cluster: "ClusterSpec",
    inter: Union[str, Any],
    intra: Union[str, Any, None] = None,
    approach: Union[str, "ExecutionModel"] = "mpi+mpi",
    ppn: Optional[int] = None,
    seed: int = 0,
    collect_trace: bool = False,
    collect_chunks: bool = True,
    costs: Optional[Any] = None,
    noise: Optional[Any] = None,
    placement: Any = "leader",
    faults: Union[str, Any, None] = None,
    max_sim_time: Optional[float] = None,
    engine: str = "scalar",
    **spec_kwargs: Any,
) -> "RunResult":
    """Run one hierarchical DLS combination and return its result.

    Parameters
    ----------
    workload:
        The loop to schedule (see :mod:`repro.workloads`).
    cluster:
        Machine description (e.g. :func:`repro.cluster.minihpc`).
    inter / intra:
        Technique names or :class:`~repro.core.technique_base.Technique`
        instances for the scheduling levels (the paper's ``X+Y``).
        Either argument may itself be a ``+``-joined stack — the level
        stack is the concatenation of both, so ``inter="GSS",
        intra="FAC2+STATIC"`` and ``inter="GSS+FAC2+STATIC"`` (with
        ``intra`` omitted) both produce the same three-level
        cluster -> node -> socket configuration; a fourth level
        schedules each socket's NUMA domains
        (cluster -> node -> socket -> numa -> core).
    approach:
        ``"mpi+mpi"`` (paper's contribution), ``"mpi+openmp"``
        (baseline), ``"flat-mpi"`` or ``"master-worker"`` (ablations),
        or ``"dcc"`` (distributed chunk calculation, arXiv 2101.07050:
        the stack is flattened ahead of time and every rank resolves
        its own chunks from one fetch-and-incremented counter —
        deterministic techniques only).  A configured
        :class:`~repro.models.base.ExecutionModel` instance (for example
        ``MpiOpenMpModel(nowait_selffetch=True)``) is run as given.
    ppn:
        Workers per node (defaults to each node's core count).
    seed:
        Simulation seed (noise, RND technique, tie-breaking).
    collect_trace:
        Record a :class:`repro.core.trace.Trace` (Gantt) — slower.
    costs / noise:
        Override the :class:`repro.cluster.costs.CostModel` /
        :class:`repro.cluster.noise.NoiseModel`.
    placement:
        Work-queue window homes (``mpi+mpi`` and ``dcc``): ``"leader"`` (default —
        global window on rank 0, each tier window first-touched by its
        group leader, bit-exact with the historical behaviour),
        ``"optimized"`` (homes solved by
        :mod:`repro.cluster.placement_opt` to minimise predicted priced
        traffic), or an explicit ``{window key -> rank}`` mapping
        (``"global"`` pins the RMA host).
    faults:
        A :class:`repro.cluster.faults.FaultModel`, or a spec string
        like ``"crash:5@0.002,slow:2@0.001:0.5"`` (see
        :meth:`~repro.cluster.faults.FaultModel.parse`).  ``None`` or an
        inactive model keeps every code path bit-identical to the
        fault-free engine.  Active faults require a failure-aware model
        (``mpi+mpi``, ``flat-mpi``, ``master-worker`` or ``dcc``).
    max_sim_time:
        Engine watchdog deadline in simulated seconds; a run that has
        not completed by then raises
        :class:`repro.sim.engine.SimulationTimeout` with diagnostics
        instead of spinning forever.
    engine:
        Event-execution strategy: ``"scalar"`` (default — one simulated
        process per rank) or ``"cohort"`` (the rank-aggregated
        macro-event engine of :mod:`repro.sim.cohorts`, which groups
        rank-symmetric events into cohorts for large rank counts).
        Cohort results are bit-exact with the scalar engine — eligible
        deterministic configurations replay the same event stream in
        condensed form (only ``RunResult.n_events`` counts macro events
        instead of scalar events), and everything else transparently
        falls back to the scalar path whole-run.

    Returns
    -------
    RunResult
        With ``.parallel_time``, ``.metrics``, ``.chunks``, ``.trace``.
    """
    from repro.core.hierarchy import HierarchicalSpec, split_stack

    if isinstance(faults, str):
        from repro.cluster.faults import FaultModel

        faults = FaultModel.parse(faults)
    spec = HierarchicalSpec.of_levels(
        *split_stack(inter), *split_stack(intra), **spec_kwargs
    )
    model = _resolve_model(approach)
    return model.run(
        workload=workload,
        cluster=cluster,
        spec=spec,
        ppn=ppn,
        seed=seed,
        collect_trace=collect_trace,
        collect_chunks=collect_chunks,
        costs=costs,
        noise=noise,
        placement=placement,
        faults=faults,
        max_sim_time=max_sim_time,
        engine=engine,
    )


def run_model(
    model: "ExecutionModel",
    workload: "Workload",
    cluster: "ClusterSpec",
    spec: "HierarchicalSpec",
    **kwargs: Any,
) -> "RunResult":
    """Run an explicit :class:`~repro.models.base.ExecutionModel` instance."""
    return model.run(workload=workload, cluster=cluster, spec=spec, **kwargs)
