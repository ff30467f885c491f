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
and the reproduction keeps are asserted as PASS/FAIL lines; known
deviations are printed as INFO lines, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.api import run_hierarchical
from repro.cluster.machine import minihpc
from repro.experiments.workloads import figure_mandelbrot, figure_psia


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


def _calibrated_workload(app: str, scale: str):
    """Scale the figure workload so MPI+MPI GSS+STATIC at 2 nodes would
    land near the paper's quoted seconds under ideal balance."""
    anchor = next(
        n for n in PAPER_NUMBERS
        if n.app == app and n.approach == "mpi+mpi" and n.nodes == 2
    )
    total = anchor.paper_seconds * 2 * PPN  # implied core-seconds
    if app == "mandelbrot":
        return figure_mandelbrot(scale, total_seconds=total)
    return figure_psia(scale, total_seconds=total)


def run_intext(scale: str = "default", seed: int = 0) -> str:
    """Run every quoted configuration and tabulate paper vs measured."""
    lines = [
        "In-text numbers (paper Sec. 5) - paper vs simulated",
        "=" * 60,
        f"{'exp':<6} {'app':<11} {'approach':<11} {'combo':<12} "
        f"{'nodes':>5} {'paper':>8} {'ours':>9} {'ratio':>6}",
        "-" * 74,
    ]
    measured = {}
    for number in PAPER_NUMBERS:
        workload = _calibrated_workload(number.app, scale)
        result = run_hierarchical(
            workload,
            minihpc(number.nodes, PPN),
            inter="GSS",
            intra="STATIC",
            approach=number.approach,
            ppn=PPN,
            seed=seed,
            collect_chunks=False,
        )
        ours = result.parallel_time
        measured[(number.app, number.approach, number.nodes)] = ours
        ratio = ours / number.paper_seconds
        lines.append(
            f"{number.experiment:<6} {number.app:<11} {number.approach:<11} "
            f"{number.combination:<12} {number.nodes:>5} "
            f"{number.paper_seconds:>7.1f}s {ours:>8.2f}s {ratio:>6.2f}"
        )

    # qualitative directions the paper emphasises
    lines.append("")
    lines.append("directional checks:")

    def check(cond: bool, text: str) -> None:
        lines.append(f"  [{'PASS' if cond else 'FAIL'}] {text}")

    def info(cond: bool, text: str) -> None:
        # observed-but-not-asserted: a known deviation from the paper
        lines.append(f"  [{'INFO:holds' if cond else 'INFO:deviates'}] {text}")

    mm2 = measured[("mandelbrot", "mpi+mpi", 2)]
    mo2 = measured[("mandelbrot", "mpi+openmp", 2)]
    mm16 = measured[("mandelbrot", "mpi+mpi", 16)]
    mo16 = measured[("mandelbrot", "mpi+openmp", 16)]
    check(mm2 < mo2, "Mandelbrot GSS+STATIC @2 nodes: MPI+MPI faster (paper: 19.6 vs 61.5)")
    check(mm16 < mo16, "Mandelbrot GSS+STATIC @16 nodes: MPI+MPI faster (paper: 3.1 vs 4.5)")
    info(
        (mo2 / mm2) > (mo16 / mm16),
        "Mandelbrot: the gap narrows from 2 to 16 nodes (paper: 3.1x -> 1.45x; "
        "our simulator keeps granularity effects dominant at 16 nodes, so the "
        "gap need not narrow — recorded as a known deviation)",
    )
    pm2 = measured[("psia", "mpi+mpi", 2)]
    po2 = measured[("psia", "mpi+openmp", 2)]
    check(pm2 < po2 * 1.02, "PSIA GSS+STATIC @2 nodes: MPI+MPI same or faster (paper: 233 vs 245)")
    check(
        (po2 / pm2) < (mo2 / mm2),
        "PSIA gap smaller than Mandelbrot gap (less load imbalance)",
    )
    return "\n".join(lines)
