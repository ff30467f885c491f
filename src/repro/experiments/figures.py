"""Figure definitions, shape checks, and paper-style reports.

``fig4`` .. ``fig7`` sweep the intra-node techniques (panels) over
cluster sizes for a fixed inter-node technique, for both applications
(``a`` = Mandelbrot, ``b`` = PSIA), exactly mirroring the paper's
Figures 4-7.  Each figure carries *shape checks* that encode the
paper's qualitative findings; every report prints them as PASS/FAIL
lines (README, "Reproducing the paper's results", lists the commands).

The extension sweeps beyond the paper (window placement, crash faults,
distributed chunk calculation), the ablations and the in-text numbers
are :class:`VariantSpec` tuples of :class:`VariantPoint` runs, all run
by :func:`run_variant`.

Unit convention: every makespan, series value and priced cost is in
simulated seconds (reports print priced costs as microseconds).  Index
convention: a run is sized by its node count and ``ppn`` ranks per
node; no rank or node index identifies a cell or point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.api import run_hierarchical
from repro.cluster.costs import COST_PRESETS, CostModel
from repro.cluster.faults import FaultModel
from repro.cluster.machine import ClusterSpec, heterogeneous, minihpc
from repro.core.hierarchy import split_stack
from repro.core.techniques import INTEL_OPENMP_SUPPORTED, PAPER_TECHNIQUES
from repro.experiments.harness import Cell, GridRunner, series_index
from repro.experiments.workloads import figure_workload, scale_from_env
from repro.models.base import ExecutionModel


@functools.lru_cache(maxsize=256)
def _intel_openmp_schedules(intra: str) -> bool:
    """Whether the Intel OpenMP runtime the paper used can run ``intra``.

    It only provides static/dynamic/guided, so MPI+OpenMP series exist
    only for those leaf schedules (for ``+``-joined stacks the leaf is
    what the OpenMP ``schedule`` clause implements).  Memoised: every
    sweep and every check pass asks once per panel.
    """
    return split_stack(intra)[-1] in INTEL_OPENMP_SUPPORTED


#: plotted approaches: label -> (model name, intra-technique filter)
APPROACHES: List[Tuple[str, Callable[[str], bool]]] = [
    ("mpi+openmp", _intel_openmp_schedules),
    ("mpi+mpi", lambda intra: True),
]


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure: an application swept under one inter technique.

    ``intras`` entries may be ``+``-joined stacks (three- or four-level
    scheduling); ``sockets_per_node`` and ``numa_per_socket`` expose
    the machine tiers those stacks schedule at (1 = the paper's flat
    node model).
    """

    figure_id: str
    paper_ref: str
    app: str
    inter: str
    intras: Tuple[str, ...] = PAPER_TECHNIQUES
    node_counts: Tuple[int, ...] = (2, 4, 8, 16)
    ppn: int = 16
    sockets_per_node: int = 1
    numa_per_socket: int = 1

    @property
    def title(self) -> str:
        """Report header: figure, app, inter technique and node shape."""
        suffix = (
            f", {self.sockets_per_node} sockets/node"
            if self.sockets_per_node > 1
            else ""
        )
        if self.numa_per_socket > 1:
            suffix += f", {self.numa_per_socket} NUMA/socket"
        return (
            f"{self.paper_ref}: {self.app} with {self.inter} inter-node "
            f"scheduling ({self.ppn} workers/node{suffix})"
        )


def socket_variant(
    figure_id: str, sockets_per_node: int = 2, mid: str = "FAC2"
) -> FigureSpec:
    """Derive the three-level (X+mid+Y) variant of a paper figure.

    Same application, inter technique and grid as the original, but on
    ``sockets_per_node``-socket nodes (the physical miniHPC Xeons are
    dual-socket) with ``mid`` scheduling each node's chunk across its
    sockets: panel ``X+Y`` becomes ``X+mid+Y``.  Not part of the paper
    — an extension sweep enabled by the arbitrary-depth hierarchy::

        run_figure_spec(socket_variant("fig5a"))
    """
    base = FIGURES[figure_id]
    return replace(
        base,
        figure_id=f"{base.figure_id}-s{sockets_per_node}",
        paper_ref=f"{base.paper_ref} ({sockets_per_node}-socket extension)",
        intras=tuple(f"{mid}+{intra}" for intra in base.intras),
        sockets_per_node=sockets_per_node,
    )


def numa_variant(
    figure_id: str,
    sockets_per_node: int = 2,
    numa_per_socket: int = 2,
    mid: str = "FAC2",
    numa_mid: str = "FAC2",
) -> FigureSpec:
    """Derive the four-level (W+mid+numa_mid+Z) variant of a paper figure.

    The depth-4 analogue of :func:`socket_variant`: same application,
    inter technique and grid as the original, but on nodes with
    ``sockets_per_node`` sockets of ``numa_per_socket`` NUMA domains
    each; ``mid`` schedules each node's chunk across its sockets and
    ``numa_mid`` each socket's sub-chunk across its NUMA domains, so
    panel ``W+Z`` becomes ``W+mid+numa_mid+Z``.  Not part of the paper
    — the three-level-series extension sweep one tier deeper::

        run_figure_spec(numa_variant("fig5a"))
    """
    base = FIGURES[figure_id]
    return replace(
        base,
        figure_id=f"{base.figure_id}-s{sockets_per_node}m{numa_per_socket}",
        paper_ref=(
            f"{base.paper_ref} ({sockets_per_node}-socket x "
            f"{numa_per_socket}-NUMA extension)"
        ),
        intras=tuple(f"{mid}+{numa_mid}+{intra}" for intra in base.intras),
        sockets_per_node=sockets_per_node,
        numa_per_socket=numa_per_socket,
    )


#: extra fixed-technique panels appended by ``adaptive_variant(...,
#: full_roster=True)`` — the roster beyond the paper's original grids
FULL_ROSTER_EXTRAS = ("FISS", "VISS", "RND", "TAP")


def adaptive_variant(
    figure_id: str,
    sockets_per_node: int = 1,
    numa_per_socket: int = 1,
    mid: str = "FAC2",
    full_roster: bool = False,
    ladders: tuple = (),
) -> FigureSpec:
    """Derive the runtime-adaptive (``ADAPT`` leaf) variant of a figure.

    Adds an ``ADAPT`` panel to the original grid so the runtime
    selector can be compared against every fixed leaf technique under
    identical conditions.  With ``sockets_per_node``/``numa_per_socket``
    above 1 the fixed panels become ``mid``-joined stacks and ADAPT
    selects per socket/NUMA queue (one selector per tier-queue refill).
    Not part of the paper — the technique-selection extension sweep::

        run_figure_spec(adaptive_variant("fig5a"))

    ``full_roster=True`` also appends the post-paper fixed techniques
    (:data:`FULL_ROSTER_EXTRAS`: FISS, VISS, seeded RND, TAP), and
    ``ladders`` accepts configured selector spellings such as
    ``"ADAPT[ss,fac2,tss]"`` to compare candidate ladders side by
    side.  The plain ``ADAPT`` panel always stays last.

    MPI+OpenMP series are skipped for the ADAPT/ladder panels
    automatically: the runtime selector has no OpenMP ``schedule``
    clause, exactly like the paper's unsupported TSS/FAC2 intra
    techniques.
    """
    base = FIGURES[figure_id]
    extras = FULL_ROSTER_EXTRAS if full_roster else ()
    panels = (*base.intras, *extras, *ladders, "ADAPT")
    if sockets_per_node == 1 and numa_per_socket == 1:
        intras = panels
        suffix_id, suffix_ref = "-adapt", " (ADAPT runtime-selection extension)"
    else:
        prefix = mid if numa_per_socket == 1 else f"{mid}+{mid}"
        intras = tuple(f"{prefix}+{intra}" for intra in panels)
        suffix_id = f"-adapt-s{sockets_per_node}m{numa_per_socket}"
        suffix_ref = (
            f" (ADAPT extension, {sockets_per_node}-socket x "
            f"{numa_per_socket}-NUMA)"
        )
    if full_roster or ladders:
        suffix_id += "-roster"
        suffix_ref = suffix_ref.rstrip(")") + ", full roster)"
    return replace(
        base,
        figure_id=f"{base.figure_id}{suffix_id}",
        paper_ref=f"{base.paper_ref}{suffix_ref}",
        intras=intras,
        sockets_per_node=sockets_per_node,
        numa_per_socket=numa_per_socket,
    )


FIGURES: Dict[str, FigureSpec] = {}
for _fig, _inter in (("fig4", "STATIC"), ("fig5", "GSS"), ("fig6", "TSS"), ("fig7", "FAC2")):
    for _sub, _app in (("a", "mandelbrot"), ("b", "psia")):
        _id = f"{_fig}{_sub}"
        FIGURES[_id] = FigureSpec(
            figure_id=_id,
            paper_ref=f"Figure {_fig[3]}{_sub}",
            app=_app,
            inter=_inter,
        )


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative acceptance criterion with its outcome (frozen, so
    memoised check lists share their elements)."""

    description: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        """The report line: ``[PASS]``/``[FAIL]``, text, detail."""
        mark = "PASS" if self.passed else "FAIL"
        out = f"  [{mark}] {self.description}"
        if self.detail:
            out += f"  ({self.detail})"
        return out


#: most figures whose checks :meth:`FigureResult.run_checks` keeps: two
#: sweeps of the eight paper figures (an entry holds its cells, about
#: 10 KB for a figure of 32 cells)
CHECKS_MEMO_CAP = 16

#: (spec, ids of its cells) -> (the cells, their checks)
_CHECKS_MEMO: Dict[Tuple, Tuple[Tuple[Cell, ...], Tuple[ShapeCheck, ...]]] = {}


@dataclass
class FigureResult:
    """Outcome of one figure sweep: its grid cells and shape checks."""

    spec: FigureSpec
    cells: List[Cell]
    checks: List[ShapeCheck] = field(default_factory=list)
    #: (cells list, its series index), built on the first series() call
    #: and rebuilt when ``cells`` is replaced (the list is not edited)
    _index: Optional[Tuple[List[Cell], Dict]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def series(self, approach: str, intra: str) -> Dict[int, float]:
        """One plotted line: node count -> parallel time in seconds."""
        index = self._index
        if index is None or index[0] is not self.cells:
            index = self._index = (self.cells, series_index(self.cells))
        return dict(index[1].get((approach, intra), {}))

    # ------------------------------------------------------------------
    def run_checks(self) -> List[ShapeCheck]:
        """Evaluate the paper's qualitative findings on this figure.

        Memoised (at most :data:`CHECKS_MEMO_CAP` figures, oldest
        evicted first) under the spec and the identities of the cells;
        the entry holds the cells, so no id is reused while it lives.
        Cells are frozen, so the same objects give the same checks: a
        repeat warm sweep, whose cache hits return the cells decoded
        before, evaluates nothing.  Simulated cells, and cells decoded
        from a rewritten cache file, are new objects and miss.  Each
        result gets its own list of the shared (frozen) checks.
        """
        cells = tuple(self.cells)
        key = (self.spec, tuple(map(id, cells)))
        entry = _CHECKS_MEMO.get(key)
        if entry is None:
            # imported here, as harness does: the process pool module
            # would load multiprocessing for every figures import
            from repro.experiments.parallel import _remember

            entry = (cells, tuple(self._shape_checks()))
            _remember(_CHECKS_MEMO, CHECKS_MEMO_CAP, key, entry)
        self.checks = list(entry[1])
        return self.checks

    def _shape_checks(self) -> List[ShapeCheck]:
        """The checks of :meth:`run_checks`, evaluated on ``cells``."""
        checks: List[ShapeCheck] = []
        spec = self.spec

        def ratio_at(intra: str, nodes: int) -> Optional[float]:
            hybrid = self.series("mpi+openmp", intra)
            mpimpi = self.series("mpi+mpi", intra)
            if nodes not in hybrid or nodes not in mpimpi or mpimpi[nodes] == 0:
                return None
            return hybrid[nodes] / mpimpi[nodes]

        # 1. strong scaling for every series
        for approach, supports in APPROACHES:
            for intra in spec.intras:
                if not supports(intra):
                    continue
                s = self.series(approach, intra)
                if len(s) >= 2:
                    first, last = s[min(s)], s[max(s)]
                    checks.append(
                        ShapeCheck(
                            f"{approach} {spec.inter}+{intra}: time shrinks "
                            f"{min(s)}->{max(s)} nodes",
                            passed=last < first,
                            detail=f"{first:.4g}s -> {last:.4g}s",
                        )
                    )

        # 2. X+SS: MPI+MPI is the poorest (lock polling)
        ss_ratios = [r for n in spec.node_counts if (r := ratio_at("SS", n))]
        if ss_ratios:
            worst = min(ss_ratios)
            checks.append(
                ShapeCheck(
                    f"{spec.inter}+SS: MPI+MPI slower than MPI+OpenMP "
                    "(lock-polling contention)",
                    passed=all(r < 1.0 for r in ss_ratios),
                    detail=f"hybrid/mpimpi ratios {['%.2f' % r for r in ss_ratios]}",
                )
            )

        # 3. X+STATIC: MPI+MPI wins for dynamic inter techniques on the
        #    strongly imbalanced Mandelbrot; for the mildly imbalanced
        #    PSIA the paper reports a small win at 2 nodes converging to
        #    parity at 16 (Sec. 5: "decreased load imbalance in PSIA");
        #    for Fig 4 (STATIC inter) both approaches tie.
        static_ratios = [r for n in spec.node_counts if (r := ratio_at("STATIC", n))]
        if static_ratios:
            if spec.inter == "STATIC":
                passed = all(0.85 < r < 1.25 for r in static_ratios)
                desc = "STATIC+STATIC: both approaches perform the same"
            elif spec.app == "mandelbrot":
                passed = max(static_ratios) > 1.15
                desc = (
                    f"{spec.inter}+STATIC: MPI+MPI clearly faster "
                    "(no implicit barrier)"
                )
            else:  # psia: small-or-no gap, but never a loss
                passed = static_ratios[0] > 0.95 and all(
                    r > 0.9 for r in static_ratios
                )
                desc = (
                    f"{spec.inter}+STATIC: MPI+MPI same or slightly better "
                    "(mild PSIA imbalance)"
                )
            checks.append(
                ShapeCheck(
                    desc,
                    passed=passed,
                    detail=f"hybrid/mpimpi ratios {['%.2f' % r for r in static_ratios]}",
                )
            )

        # 4. X+GSS parity-or-better for MPI+MPI (paper: same or better)
        gss_ratios = [r for n in spec.node_counts if (r := ratio_at("GSS", n))]
        if gss_ratios:
            floor = 0.9 if spec.app == "mandelbrot" else 0.92
            checks.append(
                ShapeCheck(
                    f"{spec.inter}+GSS: MPI+MPI same or better",
                    passed=all(r > floor for r in gss_ratios),
                    detail=f"hybrid/mpimpi ratios {['%.2f' % r for r in gss_ratios]}",
                )
            )
        return checks

    # ------------------------------------------------------------------
    def to_text(self, shape_checks: bool = True) -> str:
        """Paper-style panel table: one panel per intra technique."""
        spec = self.spec
        lines = [spec.title, "=" * len(spec.title)]
        for intra in spec.intras:
            lines.append(f"\n-- intra-node: {intra} "
                         f"({spec.inter}+{intra}) --")
            header = f"{'nodes':>6} | " + " | ".join(
                f"{a:>12}" for a, _ in APPROACHES
            )
            lines.append(header)
            lines.append("-" * len(header))
            for nodes in spec.node_counts:
                row = [f"{nodes:>6}"]
                for approach, supports in APPROACHES:
                    if not supports(intra):
                        row.append(f"{'n/a':>12}")
                        continue
                    s = self.series(approach, intra)
                    value = f"{s[nodes]:.4g}s" if nodes in s else "?"
                    row.append(f"{value:>12}")
                lines.append(" | ".join(row))
        if shape_checks:
            lines.append("\nshape checks (paper Sec. 5 findings):")
            for check in self.checks or self.run_checks():
                lines.append(check.line())
        return "\n".join(lines)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check passed."""
        return all(c.passed for c in (self.checks or self.run_checks()))


def run_figure(
    figure_id: str,
    scale: Optional[str] = None,
    seed: int = 0,
    node_counts: Optional[Tuple[int, ...]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> FigureResult:
    """Regenerate one of the paper's figures (``fig4a`` .. ``fig7b``).

    ``jobs > 1`` simulates independent grid cells on a process pool and
    ``cache_dir`` re-serves previously simulated cells from disk; both
    produce results identical to the serial path (see
    :mod:`repro.experiments.parallel`).
    """
    if figure_id not in FIGURES:
        raise KeyError(f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}")
    spec = FIGURES[figure_id]
    if node_counts is not None:
        spec = replace(spec, node_counts=tuple(node_counts))
    return run_figure_spec(
        spec, scale=scale, seed=seed, progress=progress, jobs=jobs,
        cache_dir=cache_dir,
    )


def run_figure_spec(
    spec: FigureSpec,
    scale: Optional[str] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> FigureResult:
    """Sweep an explicit :class:`FigureSpec` — including derived ones
    such as :func:`socket_variant` three-level extensions."""
    workload = figure_workload(spec.app, scale or scale_from_env())
    runner = GridRunner(
        workload=workload,
        ppn=spec.ppn,
        node_counts=spec.node_counts,
        seed=seed,
        cluster_factory=lambda n: minihpc(
            n,
            spec.ppn,
            sockets_per_node=spec.sockets_per_node,
            numa_per_socket=spec.numa_per_socket,
        ),
        progress=progress,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    cells = runner.sweep(spec.inter, spec.intras, APPROACHES)
    result = FigureResult(spec=spec, cells=cells)
    result.run_checks()
    return result


# ---------------------------------------------------------------------------
# variant sweeps: extensions of a figure, one run_hierarchical call per point
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VariantPoint:
    """One run of a variant sweep.

    ``panel`` names the report block the run belongs to and ``x`` its
    place on that block's axis (node count, crash count, ``ppn`` or
    poll interval in microseconds); ``app`` names the figure workload,
    rescaled to ``total_seconds`` of work when that is set.  The other
    fields are :func:`repro.api.run_hierarchical` arguments: ``approach``
    is a model name or an :class:`ExecutionModel` instance, ``cluster``
    has ``n_nodes`` nodes of ``ppn`` ranks (``None``: ``minihpc``),
    ``costs=None`` is the default cost model, ``faults=None`` no faults.
    """

    panel: str
    x: int
    app: str
    approach: Union[str, ExecutionModel]
    inter: str
    intra: str
    n_nodes: int
    ppn: int
    cluster: Optional[ClusterSpec] = None
    costs: Optional[CostModel] = None
    placement: str = "leader"
    faults: Optional[FaultModel] = None
    total_seconds: Optional[float] = None

    @property
    def stack(self) -> str:
        """The ``inter+intra`` technique stack this point runs."""
        return f"{self.inter}+{self.intra}"


@dataclass(frozen=True)
class VariantCell:
    """One simulated :class:`VariantPoint`: its makespan, measured
    distance-priced queue traffic and summed lock-poll wait in simulated
    seconds, its window-lock attempts, and the run counters the variant
    reports read (0 when a run reports none)."""

    point: VariantPoint
    parallel_time: float
    placement_cost_s: float
    total_poll_wait: float
    lock_attempts: int
    failures_injected: int
    chunks_reexecuted: int
    failovers: int
    lock_leases_broken: int
    global_atomics: int
    dcc_steps: int
    lock_acquisitions: int


@dataclass(frozen=True)
class VariantSpec:
    """A sweep of simulated runs with a report, run by :func:`run_variant`.

    ``points`` are run in order; ``rows`` renders the report's table
    lines below the title and ``checks`` its shape checks, both from the
    :class:`VariantResult`; ``extension`` names the sweep in the
    shape-check heading and ``paper_ref`` the part of the paper it
    extends or reproduces.
    """

    title: str
    paper_ref: str
    extension: str
    points: Tuple[VariantPoint, ...]
    rows: Callable[["VariantResult"], List[str]]
    checks: Callable[["VariantResult"], List[ShapeCheck]]

    @property
    def panels(self) -> Dict[str, List[VariantPoint]]:
        """Panel label -> its points in run order, panels in the order
        their first point appears."""
        panels: Dict[str, List[VariantPoint]] = {}
        for point in self.points:
            panels.setdefault(point.panel, []).append(point)
        return panels


@dataclass
class VariantResult:
    """Outcome of one variant sweep: one cell per point, in run order."""

    spec: VariantSpec
    cells: List[VariantCell]
    checks: List[ShapeCheck] = field(default_factory=list)

    def panel_cells(
        self, panel: str, placement: Optional[str] = None
    ) -> List[VariantCell]:
        """One panel's cells sorted by ``x``; ``placement`` keeps only
        the runs with that window-placement policy."""
        mine = [c for c in self.cells if c.point.panel == panel]
        if placement is not None:
            mine = [c for c in mine if c.point.placement == placement]
        return sorted(mine, key=lambda c: c.point.x)

    def series(self, panel: str) -> Dict[int, float]:
        """x -> makespan in seconds along one panel."""
        return {c.point.x: c.parallel_time for c in self.panel_cells(panel)}

    def degradation(self, panel: str, x: int) -> float:
        """Relative makespan increase of a panel's point at ``x`` over
        its ``x == 0`` baseline (0.0 without a baseline)."""
        times = self.series(panel)
        if not times.get(0) or x not in times:
            return 0.0
        return times[x] / times[0] - 1.0

    def run_checks(self) -> List[ShapeCheck]:
        """Evaluate the spec's shape checks on these cells."""
        self.checks = self.spec.checks(self)
        return self.checks

    def to_text(self) -> str:
        """Paper-style report: title, the spec's table, shape checks."""
        spec = self.spec
        lines = [spec.title, "=" * len(spec.title), *spec.rows(self)]
        lines.append(f"\nshape checks ({spec.extension}):")
        lines += [check.line() for check in self.checks or self.run_checks()]
        return "\n".join(lines)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check passed."""
        return all(c.passed for c in (self.checks or self.run_checks()))


def run_variant(
    spec: VariantSpec,
    scale: Optional[str] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> VariantResult:
    """Run every point of a variant sweep and evaluate its shape checks.

    Each point is one :func:`repro.api.run_hierarchical` call with
    ``seed`` on the figure workload of ``point.app`` at ``scale``
    (default: the ``REPRO_SCALE`` environment scale)::

        run_variant(placement_variant("fig5a"), scale="quick")
    """
    scale = scale or scale_from_env()
    cells: List[VariantCell] = []
    for p in spec.points:
        run = run_hierarchical(
            figure_workload(p.app, scale, total_seconds=p.total_seconds),
            p.cluster or minihpc(p.n_nodes, p.ppn), inter=p.inter, intra=p.intra,
            approach=p.approach, ppn=p.ppn, seed=seed, collect_chunks=False,
            costs=p.costs, placement=p.placement, faults=p.faults,
        )
        counters = run.counters
        cells.append(VariantCell(
            p, run.parallel_time,
            float(counters.get("placement_cost_s", 0.0)),
            float(counters.get("total_poll_wait", 0.0)),
            sum(s["attempts"] for s in counters.get("lock_stats", {}).values()),
            # the other fields are named as the run's integer counters
            *(int(counters.get(f.name, 0)) for f in fields(VariantCell)[5:]),
        ))
        if progress is not None:
            progress(f"  {p.panel:<13} x={p.x:<3} T={run.parallel_time:.4g}s")
    result = VariantResult(spec=spec, cells=cells)
    result.run_checks()
    return result


def placement_variant(
    figure_id: str,
    sockets_per_node: int = 2,
    numa_per_socket: int = 2,
    mid: str = "FAC2",
    node_counts: Tuple[int, ...] = (2, 4),
    ppn: int = 8,
    core_speeds: Tuple[float, ...] = (0.6, 1.4),
    costs_preset: str = "calibrated",
) -> VariantSpec:
    """Derive the placement comparison of a paper figure.

    Same application and inter technique as the original, but on an
    asymmetric cluster: ``core_speeds`` are cycled over the nodes (a
    slow node 0 makes the rank-0 leader home of the global RMA window a
    poor host), and the nodes are dual-socket x NUMA.  Each panel is
    deepened to a depth-4 ``X+mid+mid+Y`` stack and swept twice,
    ``placement="leader"`` vs ``placement="optimized"``, under the
    ``costs_preset`` entry of :data:`repro.cluster.costs.COST_PRESETS`.
    Not part of the paper: the penalty-aware queue-placement extension
    sweep::

        run_variant(placement_variant("fig5a"))
    """
    base = FIGURES[figure_id]
    mids = 2 if numa_per_socket > 1 else int(sockets_per_node > 1)
    intras = tuple(f"{mid}+" * mids + intra for intra in base.intras)
    clusters = {
        n: heterogeneous(
            core_counts=[ppn] * n,
            core_speeds=[core_speeds[i % len(core_speeds)] for i in range(n)],
            socket_counts=[sockets_per_node] * n,
            numa_counts=[numa_per_socket] * n,
            name=f"asym-{base.figure_id}-placement",
        )
        for n in node_counts
    }
    costs = COST_PRESETS[costs_preset]
    paper_ref = f"{base.paper_ref} (queue-placement extension)"
    return VariantSpec(
        title=(
            f"{paper_ref}: {base.app} with {base.inter} inter-node "
            f"scheduling — leader vs optimized window placement "
            f"({ppn} workers/node, {sockets_per_node} sockets x "
            f"{numa_per_socket} NUMA, node speeds "
            f"{'/'.join(str(s) for s in core_speeds)}, {costs_preset} costs)"
        ),
        paper_ref=paper_ref,
        extension="queue-placement extension",
        points=tuple(
            VariantPoint(
                intra, n, base.app, "mpi+mpi", base.inter, intra, n, ppn,
                clusters[n],
                costs=costs, placement=placement,
            )
            for placement in ("leader", "optimized")
            for intra in intras
            for n in node_counts
        ),
        rows=_placement_rows,
        checks=_placement_checks,
    )


def _placement_checks(result: VariantResult) -> List[ShapeCheck]:
    """Optimized homes must not cost more than leader homes, and at
    least one panel must show a real (>1%) reduction."""
    checks: List[ShapeCheck] = []
    best_gain = 0.0
    for panel, points in result.spec.panels.items():
        leader, optimized = (
            sum(c.placement_cost_s for c in result.panel_cells(panel, placement=p))
            for p in ("leader", "optimized")
        )
        gain = (leader - optimized) / leader if leader > 0 else 0.0
        best_gain = max(best_gain, gain)
        checks.append(
            ShapeCheck(
                f"{points[0].stack}: optimized placement priced cost <= leader",
                passed=optimized <= leader * 1.0000001,
                detail=f"{leader * 1e6:.1f}us -> {optimized * 1e6:.1f}us ({gain:+.1%})",
            )
        )
    checks.append(
        ShapeCheck(
            "at least one panel cuts priced cost by > 1% "
            "(the optimizer moved a window that matters)",
            passed=best_gain > 0.01,
            detail=f"best reduction {best_gain:.1%}",
        )
    )
    return checks


def _placement_rows(result: VariantResult) -> List[str]:
    """Per-panel priced-cost and makespan table, one row per node count."""
    header = (
        f"{'nodes':>6} | {'leader cost':>12} | {'optimized':>12} | "
        f"{'delta':>7} | {'leader T':>10} | {'optimized T':>11}"
    )
    lines: List[str] = []
    for panel, points in result.spec.panels.items():
        lines += [f"\n-- {points[0].stack} --", header, "-" * len(header)]
        leader = result.panel_cells(panel, placement="leader")
        optimized = result.panel_cells(panel, placement="optimized")
        for lead, opt in zip(leader, optimized):
            lc, oc = lead.placement_cost_s, opt.placement_cost_s
            lines.append(
                f"{lead.point.x:>6} | {lc * 1e6:>10.1f}us | {oc * 1e6:>10.1f}us"
                f" | {(oc - lc) / lc if lc else 0.0:>+6.1%} |"
                f" {lead.parallel_time:>9.4g}s | {opt.parallel_time:>10.4g}s"
            )
    return lines


def fault_variant(
    figure_id: str,
    inters: Tuple[str, ...] = ("SS", "FAC2", "GSS", "ADAPT"),
    intra: str = "SS",
    n_nodes: int = 4,
    ppn: int = 8,
    crash_counts: Tuple[int, ...] = (0, 1, 2, 4),
    t_window: Tuple[float, float] = (5e-4, 5e-3),
    fault_seed: int = 0,
) -> VariantSpec:
    """Derive the fault-resilience comparison of a paper figure.

    Same application as the original figure, but on a fixed cluster with
    the inter technique on the panels and the injected failure count on
    the x-axis.  Each count draws seeded
    :meth:`repro.cluster.faults.FaultModel.random_crashes` victims
    (crash times uniform over ``t_window`` seconds, at most ``ppn - 1``
    victims per node so recovery stays possible); count 0 is the
    fault-free baseline the degradation is measured against.  Not part
    of the paper — the failure-aware scheduling extension sweep::

        run_variant(fault_variant("fig5a"))
    """
    base = FIGURES[figure_id]
    paper_ref = f"{base.paper_ref} (fault-injection extension)"
    return VariantSpec(
        title=(
            f"{paper_ref}: {base.app} under crash-stop failures — "
            f"{' vs '.join(inters)} inter-node scheduling "
            f"({n_nodes} nodes x {ppn} workers, crashes in "
            f"[{t_window[0]:g}s, {t_window[1]:g}s])"
        ),
        paper_ref=paper_ref,
        extension="fault-injection extension",
        points=tuple(
            VariantPoint(
                inter, n, base.app, "mpi+mpi", inter, intra, n_nodes, ppn,
                faults=FaultModel.random_crashes(
                    n, n_nodes, ppn, t_window, seed=fault_seed
                ) if n else None,
            )
            for inter in inters
            for n in crash_counts
        ),
        rows=_fault_rows,
        checks=_fault_checks,
    )


def _fault_checks(result: VariantResult) -> List[ShapeCheck]:
    """Every faulted run must complete on the survivors with every
    injected crash observed, re-execute stranded work, and cost no
    less than the fault-free baseline (within noise)."""
    spec = result.spec
    checks: List[ShapeCheck] = []
    worst = max(p.x for p in spec.points)
    for panel, points in spec.panels.items():
        mine, stack = result.panel_cells(panel), points[0].stack
        degradation = result.degradation(panel, worst)
        checks += [
            ShapeCheck(
                f"{stack}: every injected crash observed, run completed on "
                "survivors",
                passed=all(c.failures_injected >= c.point.x for c in mine),
                detail=f"{len(mine)} runs",
            ),
            ShapeCheck(
                f"{stack}: {worst} crashes do not beat the fault-free "
                "baseline",
                passed=degradation >= -0.01,
                detail=f"degradation {degradation:+.1%}",
            ),
        ]
    reexecuted = sum(c.chunks_reexecuted for c in result.cells)
    checks.append(
        ShapeCheck(
            "stranded chunks were re-executed somewhere in the sweep",
            passed=worst == 0 or reexecuted > 0,
            detail=f"{reexecuted} range(s) re-executed",
        )
    )
    return checks


def _fault_rows(result: VariantResult) -> List[str]:
    """Makespan vs failure count per technique."""
    header = (
        f"{'technique':>12} | {'crashes':>7} | {'T':>10} | "
        f"{'degr.':>7} | {'re-exec':>7} | {'failovers':>9} | {'leases':>6}"
    )
    return [header, "-" * len(header)] + [
        f"{c.point.stack:>12} | {c.point.x:>7} | {c.parallel_time:>9.4g}s |"
        f" {result.degradation(panel, c.point.x):>+6.1%} |"
        f" {c.chunks_reexecuted:>7} | {c.failovers:>9} | {c.lock_leases_broken:>6}"
        for panel in result.spec.panels
        for c in result.panel_cells(panel)
    ]


def dcc_variant(
    figure_id: str,
    inter: str = "SS",
    intra: str = "SS",
    n_nodes: int = 4,
    ppn_counts: Tuple[int, ...] = (4, 8, 16, 32),
) -> VariantSpec:
    """Derive the dCC contention comparison of a paper figure.

    Same application as the original figure, on a fixed node count with
    workers-per-node on the x-axis and one panel per approach: the
    centralised master-worker, the hierarchical mpi+mpi queues and
    distributed chunk calculation.  As ``ppn`` grows every worker of the
    coordinator approaches queues on one agent, while dCC pays exactly
    one remote atomic per chunk — the contention argument of arXiv
    2101.07050.  Not part of the paper — the
    distributed-chunk-calculation extension sweep::

        run_variant(dcc_variant("fig5a"))
    """
    base = FIGURES[figure_id]
    approaches = ("master-worker", "mpi+mpi", "dcc")
    paper_ref = f"{base.paper_ref} (dCC contention extension)"
    return VariantSpec(
        title=(
            f"{paper_ref}: {base.app} coordinator contention vs dCC — "
            f"{' vs '.join(approaches)} with {inter}+{intra} "
            f"on {n_nodes} nodes, ppn in {list(ppn_counts)}"
        ),
        paper_ref=paper_ref,
        extension="dCC contention extension",
        points=tuple(
            VariantPoint(a, ppn, base.app, a, inter, intra, n_nodes, ppn)
            for a in approaches
            for ppn in ppn_counts
        ),
        rows=_dcc_rows,
        checks=_dcc_checks,
    )


def _dcc_checks(result: VariantResult) -> List[ShapeCheck]:
    """dCC must retire exactly one atomic per dispensed step plus one
    exhausted fetch per rank, and not lose to the centralised
    coordinator at the widest node."""
    dcc_cells = result.panel_cells("dcc")
    widest = max(p.x for p in result.spec.points)
    t_dcc, t_coord = (result.series(a)[widest] for a in ("dcc", "master-worker"))
    return [
        ShapeCheck(
            "dcc: atomics == dispensed steps + one exhausted fetch per rank",
            passed=all(
                c.global_atomics == c.dcc_steps + c.point.n_nodes * c.point.ppn
                for c in dcc_cells
            ),
            detail=f"{len(dcc_cells)} widths checked",
        ),
        ShapeCheck(
            f"dcc does not lose to the coordinator at ppn={widest}",
            passed=t_dcc <= t_coord * 1.01,
            detail=f"T_dcc={t_dcc:.4g}s vs T_mw={t_coord:.4g}s",
        ),
    ]


def _dcc_rows(result: VariantResult) -> List[str]:
    """Makespan vs node width per approach."""
    header = (
        f"{'approach':>13} | {'ppn':>4} | {'T':>10} | "
        f"{'atomics':>8} | {'steps':>6} | {'priced traffic':>14}"
    )
    return [header, "-" * len(header)] + [
        f"{panel:>13} | {c.point.x:>4} | {c.parallel_time:>9.4g}s |"
        f" {c.global_atomics:>8} | {c.dcc_steps:>6} |"
        f" {c.placement_cost_s * 1e6:>12.1f}us"
        for panel in result.spec.panels
        for c in result.panel_cells(panel)
    ]


def run_sync_illustration(scale: str = "quick", seed: int = 0) -> str:
    """Regenerate Figures 2 and 3: the implicit-synchronisation Gantt
    charts for MPI+OpenMP vs MPI+MPI on one node-pair slice."""
    workload = figure_workload("mandelbrot", scale)
    out = []
    results = {}
    # FAC2 at the inter level gives multiple scheduling rounds even on a
    # single node (each batch takes half the remainder), so the per-chunk
    # implicit barrier of Figure 2 appears repeatedly, as in the paper.
    for approach, fig in (("mpi+openmp", "Figure 2"), ("mpi+mpi", "Figure 3")):
        result = run_hierarchical(
            workload,
            minihpc(1, 8),
            inter="FAC2",
            intra="STATIC",
            approach=approach,
            ppn=8,
            seed=seed,
            collect_trace=True,
            collect_chunks=False,
        )
        results[approach] = result
        sync_total = sum(result.trace.sync_time_per_worker().values())
        out.append(
            f"{fig} ({approach}): t_end={result.parallel_time:.4g}s, "
            f"total implicit-sync time={sync_total:.4g}s"
        )
        out.append(result.trace.render_gantt(width=88))
        out.append("")
    t_omp = results["mpi+openmp"].parallel_time
    t_mpi = results["mpi+mpi"].parallel_time
    verdict = "PASS" if t_mpi < t_omp else "FAIL"
    out.append(
        f"[{verdict}] t'_end ({t_mpi:.4g}s, MPI+MPI) < t_end ({t_omp:.4g}s, "
        "MPI+OpenMP) as illustrated by the paper's Figures 2/3"
    )
    return "\n".join(out)
