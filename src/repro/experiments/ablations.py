"""Ablation studies (A-1 .. A-4): the design choices behind the results.

These go beyond the paper's figures to quantify *why* the results look
the way they do:

* **A-1** lock-polling interval sweep — the single parameter behind the
  ``X+SS`` penalty (paper Sec. 5's MPI_Win_lock discussion / [38]).
* **A-2** execution-model comparison — hierarchical MPI+MPI vs flat
  distributed chunk calculation vs centralised master-worker.
* **A-3** the ``nowait`` future-work variant (paper Sec. 6): threads
  fetch chunks themselves instead of synchronising at a barrier.
* **A-4** workers-per-node sensitivity.

Each builder returns a :class:`~repro.experiments.figures.VariantSpec`
of Mandelbrot runs on ``nodes`` miniHPC nodes of ``ppn`` ranks whose
shape checks state the finding, e.g. ``run_variant(ablation_ppn())``.
Times are simulated seconds (polling intervals print as microseconds).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.costs import CostModel
from repro.experiments.figures import (
    ShapeCheck, VariantPoint, VariantResult, VariantSpec)
from repro.models import MpiOpenMpModel


def _grid_rows(result: VariantResult, x_width: int, width: int) -> List[str]:
    series = [result.series(panel) for panel in result.spec.panels]
    return [
        " | ".join([f"{x:>{x_width}}", *(f"{s[x]:>{width}.4g}s" for s in series)])
        for x in sorted(series[0])
    ]


def ablation_lockpoll(
    intervals: Tuple[float, ...] = (10e-6, 30e-6, 60e-6, 120e-6, 240e-6),
    nodes: int = 4,
    ppn: int = 16,
) -> VariantSpec:
    """A-1: how the MPI_Win_lock polling interval (seconds, ascending)
    drives the SS penalty over the lock-free MPI+OpenMP reference."""
    def point(panel, x, approach, costs=None):
        return VariantPoint(panel, x, "mandelbrot", approach, "FAC2", "SS",
                            nodes, ppn, costs=costs)

    return VariantSpec(
        title=f"A-1: lock-polling interval sweep (FAC2+SS, {nodes} nodes x "
        f"{ppn} workers)",
        paper_ref="Sec. 5 (MPI_Win_lock polling, [38])",
        extension="A-1 lock-polling ablation",
        points=(point("reference", 0, "mpi+openmp"), *(
            point("mpi+mpi", round(i * 1e6), "mpi+mpi",
                  CostModel().with_overrides(**{"mpi.shm_poll_interval": i}))
            for i in intervals
        )),
        rows=_lockpoll_rows,
        checks=_lockpoll_checks,
    )


def _lockpoll_rows(result: VariantResult) -> List[str]:
    (hybrid,) = result.panel_cells("reference")
    return [
        f"MPI+OpenMP reference: {hybrid.parallel_time:.4g}s "
        "(atomic chunk grabs, no window locks)",
        "",
        f"{'poll interval':>14} {'MPI+MPI time':>13} {'penalty':>9} "
        f"{'poll wait':>11} {'attempts/acq':>13}",
        "-" * 64,
    ] + [
        f"{c.point.x:>11.0f} us {c.parallel_time:>12.4g}s "
        f"{c.parallel_time / hybrid.parallel_time:>8.2f}x "
        f"{c.total_poll_wait:>10.4g}s "
        f"{c.lock_attempts / max(1, c.lock_acquisitions):>13.2f}"
        for c in result.panel_cells("mpi+mpi")
    ]


def _lockpoll_checks(result: VariantResult) -> List[ShapeCheck]:
    (hybrid,) = result.panel_cells("reference")
    first, *_, last = result.panel_cells("mpi+mpi")
    p0, p1 = (c.parallel_time / hybrid.parallel_time for c in (first, last))
    return [ShapeCheck(
        "the X+SS penalty grows with the polling interval: a "
        "lock-implementation artefact, as the paper argues via [38]",
        passed=p1 > p0,
        detail=f"{first.point.x} us {p0:.2f}x -> {last.point.x} us {p1:.2f}x",
    )]


def ablation_models(
    node_counts: Tuple[int, ...] = (2, 4, 8, 16), ppn: int = 16
) -> VariantSpec:
    """A-2: hierarchical vs flat vs centralised master-worker."""
    return VariantSpec(
        title=f"A-2: execution-model comparison (GSS, {ppn} workers/node)",
        paper_ref="Sec. 2 (the master-worker bottleneck)",
        extension="A-2 execution-model ablation",
        points=tuple(
            VariantPoint(a, n, "mandelbrot", a, "GSS", "GSS", n, ppn)
            for n in node_counts
            for a in ("mpi+mpi", "mpi+openmp", "flat-mpi", "master-worker")
        ),
        rows=lambda result: [
            f"{'nodes':>6} | " + " | ".join(f"{a:>13}" for a in result.spec.panels),
            "-" * 72,
            *_grid_rows(result, 6, 12),
        ],
        checks=_models_checks,
    )


def _models_checks(result: VariantResult) -> List[ShapeCheck]:
    biggest = max(p.x for p in result.spec.points)
    gain = result.series("master-worker")[biggest] / result.series("mpi+mpi")[biggest]
    return [ShapeCheck(
        f"at {biggest} nodes hierarchical MPI+MPI is faster than the "
        "centralised master-worker model (the bottleneck that motivated "
        "hierarchical DLS, paper Sec. 2)",
        passed=gain > 1.0,
        detail=f"master-worker/MPI+MPI {gain:.2f}x",
    )]


def ablation_nowait(nodes: int = 4, ppn: int = 16) -> VariantSpec:
    """A-3: the paper's Sec. 6 future-work variant — OpenMP ``nowait``
    with thread-initiated (serialised) MPI fetches."""
    return VariantSpec(
        title=f"A-3: nowait future-work variant (GSS+STATIC, {nodes} nodes x {ppn})",
        paper_ref="Sec. 6 (OpenMP nowait future work)",
        extension="A-3 nowait ablation",
        points=tuple(
            VariantPoint(label, nodes, "mandelbrot", a, "GSS", "STATIC", nodes, ppn)
            for label, a in (
                ("MPI+OpenMP (barrier)", "mpi+openmp"),
                ("MPI+OpenMP (nowait self-fetch)",
                 MpiOpenMpModel(nowait_selffetch=True)),
                ("MPI+MPI (proposed)", "mpi+mpi"),
            )
        ),
        rows=lambda result: [
            f"  {c.point.panel:<32} {c.parallel_time:.4g}s" for c in result.cells
        ],
        checks=_nowait_checks,
    )


def _nowait_checks(result: VariantResult) -> List[ShapeCheck]:
    barrier, nowait = (c.parallel_time for c in result.cells[:2])
    return [ShapeCheck(
        "removing the implicit barrier (nowait self-fetch) makes MPI+OpenMP faster",
        passed=nowait < barrier,
        detail=f"recovers {(barrier - nowait) / barrier:.0%} of the hybrid's time",
    )]


def ablation_ppn(ppns: Tuple[int, ...] = (2, 4, 8, 16), nodes: int = 4) -> VariantSpec:
    """A-4: workers-per-node sensitivity of both approaches."""
    return VariantSpec(
        title=f"A-4: workers-per-node sweep (GSS+STATIC / GSS+SS, {nodes} nodes)",
        paper_ref="Sec. 5 (X+STATIC and X+SS at 16 workers/node)",
        extension="A-4 workers-per-node ablation",
        points=tuple(
            VariantPoint(f"{label} {intra}", ppn, "mandelbrot", a, "GSS", intra,
                         nodes, ppn)
            for ppn in ppns
            for intra in ("STATIC", "SS")
            for label, a in (("hybrid", "mpi+openmp"), ("mpimpi", "mpi+mpi"))
        ),
        rows=lambda result: [
            f"{'ppn':>4} | {'hybrid STATIC':>14} | {'mpimpi STATIC':>14} | "
            f"{'hybrid SS':>11} | {'mpimpi SS':>11}",
            "-" * 70,
            *_grid_rows(result, 4, 13),
        ],
        checks=_ppn_checks,
    )


def _ppn_checks(result: VariantResult) -> List[ShapeCheck]:
    s = {panel: result.series(panel) for panel in result.spec.panels}
    ppns = sorted(s["hybrid SS"])
    ss = [s["mpimpi SS"][x] / s["hybrid SS"][x] for x in ppns]
    static = [s["hybrid STATIC"][x] / s["mpimpi STATIC"][x] for x in ppns]
    return [
        ShapeCheck(
            "the SS lock-contention penalty grows with ppn (more pollers per window)",
            passed=ss[-1] > ss[0],
            detail=f"mpimpi/hybrid SS ratios {['%.2f' % r for r in ss]}",
        ),
        ShapeCheck(
            "the STATIC advantage of MPI+MPI persists across ppn",
            passed=all(r > 1.0 for r in static),
            detail=f"hybrid/mpimpi STATIC ratios {['%.2f' % r for r in static]}",
        ),
    ]


#: ``repro ablation --id`` name -> builder
ABLATIONS = {"lockpoll": ablation_lockpoll, "models": ablation_models,
             "nowait": ablation_nowait, "ppn": ablation_ppn}
