"""In-text number reproduction (E-N1 / E-N2).

Section 5 of the paper quotes absolute seconds for the GSS+STATIC
combination.  We reproduce them by scaling the calibrated figure
workloads so that total work matches the paper's implied core-seconds
(parallel time x workers at the smallest system size for the MPI+MPI
run), then comparing every quoted number against our simulation.

Absolute agreement is not expected (our substrate is a simulator and
the paper's kernel parameters are unpublished); the point of this
experiment is to record paper-vs-measured side by side, including the
win/lose direction of every comparison.  Directions the paper states
and the reproduction keeps are shape checks (PASS/FAIL lines); known
deviations are printed as INFO lines, not asserted::

    run_variant(intext_variant(), scale="quick")

Unit convention: quoted and simulated times are seconds.  Index
convention: a run is sized by its node count and :data:`PPN` ranks per
node; no rank index identifies a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.figures import (
    ShapeCheck, VariantPoint, VariantResult, VariantSpec)


@dataclass(frozen=True)
class InTextNumber:
    """One quoted measurement from the paper's Section 5."""

    experiment: str
    app: str
    approach: str
    combination: str
    nodes: int
    paper_seconds: float


#: Every absolute number quoted in the paper's evaluation text.
PAPER_NUMBERS: List[InTextNumber] = [
    InTextNumber("E-N1", "mandelbrot", "mpi+mpi", "GSS+STATIC", 2, 19.6),
    InTextNumber("E-N1", "mandelbrot", "mpi+mpi", "GSS+STATIC", 16, 3.1),
    InTextNumber("E-N1", "mandelbrot", "mpi+openmp", "GSS+STATIC", 2, 61.5),
    InTextNumber("E-N1", "mandelbrot", "mpi+openmp", "GSS+STATIC", 16, 4.5),
    InTextNumber("E-N2", "psia", "mpi+mpi", "GSS+STATIC", 2, 233.0),
    InTextNumber("E-N2", "psia", "mpi+openmp", "GSS+STATIC", 2, 245.0),
]

#: paper workers per node
PPN = 16


#: app -> total work (seconds) that puts MPI+MPI GSS+STATIC at 2 nodes
#: near the paper's quoted seconds under ideal balance (core-seconds)
TOTAL_SECONDS = {
    n.app: n.paper_seconds * 2 * PPN
    for n in PAPER_NUMBERS if n.approach == "mpi+mpi" and n.nodes == 2
}


def intext_variant() -> VariantSpec:
    """Every quoted configuration, run on its calibrated workload."""
    return VariantSpec(
        title="In-text numbers (paper Sec. 5) - paper vs simulated",
        paper_ref="Sec. 5 (E-N1/E-N2 quoted seconds)",
        extension="paper Sec. 5 in-text directions",
        points=tuple(
            VariantPoint(
                f"{n.app} {n.approach}", n.nodes, n.app, n.approach,
                *n.combination.split("+"), n.nodes, PPN,
                total_seconds=TOTAL_SECONDS[n.app],
            )
            for n in PAPER_NUMBERS
        ),
        rows=_intext_rows,
        checks=_intext_checks,
    )


def _gaps(result: VariantResult) -> Dict[Tuple[str, int], float]:
    """(app, nodes) -> MPI+OpenMP time over MPI+MPI time."""
    t = {(c.point.app, c.point.approach, c.point.x): c.parallel_time
         for c in result.cells}
    return {(a, n): t[a, "mpi+openmp", n] / t[a, "mpi+mpi", n] for a, _, n in t}


def _intext_rows(result: VariantResult) -> List[str]:
    gaps = _gaps(result)
    narrows = gaps["mandelbrot", 2] > gaps["mandelbrot", 16]
    return [
        f"{'exp':<6} {'app':<11} {'approach':<11} {'combo':<12} "
        f"{'nodes':>5} {'paper':>8} {'ours':>9} {'ratio':>6}",
        "-" * 74,
    ] + [
        f"{n.experiment:<6} {n.app:<11} {n.approach:<11} {n.combination:<12} "
        f"{n.nodes:>5} {n.paper_seconds:>7.1f}s {c.parallel_time:>8.2f}s "
        f"{c.parallel_time / n.paper_seconds:>6.2f}"
        for n, c in zip(PAPER_NUMBERS, result.cells)
    ] + [
        "",  # observed but not asserted: a known deviation from the paper
        f"  [{'INFO:holds' if narrows else 'INFO:deviates'}] Mandelbrot: the "
        "gap narrows from 2 to 16 nodes (paper: 3.1x -> 1.45x; our "
        "simulator keeps granularity effects dominant at 16 nodes, so the "
        "gap need not narrow — recorded as a known deviation)",
    ]


def _intext_checks(result: VariantResult) -> List[ShapeCheck]:
    gaps = _gaps(result)
    m2, m16, p2 = gaps["mandelbrot", 2], gaps["mandelbrot", 16], gaps["psia", 2]
    return [
        ShapeCheck(text, passed=passed, detail=f"MPI+OpenMP/MPI+MPI {detail}")
        for text, passed, detail in (
            ("Mandelbrot GSS+STATIC @2 nodes: MPI+MPI faster (paper: 19.6 vs 61.5)",
             m2 > 1.0, f"{m2:.2f}x"),
            ("Mandelbrot GSS+STATIC @16 nodes: MPI+MPI faster (paper: 3.1 vs 4.5)",
             m16 > 1.0, f"{m16:.2f}x"),
            ("PSIA GSS+STATIC @2 nodes: MPI+MPI same or faster (paper: 233 vs 245)",
             p2 * 1.02 > 1.0, f"{p2:.2f}x"),
            ("PSIA gap smaller than Mandelbrot gap (less load imbalance)",
             p2 < m2, f"PSIA {p2:.2f}x vs Mandelbrot {m2:.2f}x"),
        )
    ]
