"""Experiment harness (S10): regenerate every table and figure.

The paper's evaluation artefacts map to this package as follows
(README's "Reproducing the paper's results" lists the CLI commands):

* Table 1  -> :func:`repro.experiments.tables.table1`
* Figure 2/3 (sync illustration) -> :func:`repro.experiments.figures.run_sync_illustration`
* Figures 4-7 -> :func:`repro.experiments.figures.run_figure` with ids
  ``fig4a`` ... ``fig7b``
* In-text numbers (Sec. 5) -> :func:`repro.experiments.intext.intext_variant`
* Ablations A-1..A-4 -> the builders of :mod:`repro.experiments.ablations`
* Extension sweeps (window placement, crash faults, dCC) ->
  :func:`~repro.experiments.figures.placement_variant`,
  :func:`~repro.experiments.figures.fault_variant` and
  :func:`~repro.experiments.figures.dcc_variant`

The last three rows build a :class:`~repro.experiments.figures.VariantSpec`
that :func:`repro.experiments.figures.run_variant` runs.

All experiments run on the calibrated figure workloads from
:mod:`repro.experiments.workloads` and print paper-style series plus
qualitative *shape checks* that encode the paper's findings.

Conventions: a cell's times are simulated seconds (``wall_seconds``
host seconds); a cell is sized by its node count and ``ppn`` ranks per
node, never by a node index.
"""

from repro.experiments.figures import (
    FIGURES,
    FigureResult,
    FigureSpec,
    VariantResult,
    VariantSpec,
    dcc_variant,
    fault_variant,
    placement_variant,
    run_figure,
    run_sync_illustration,
    run_variant,
)
from repro.experiments.harness import Cell, GridRunner, simulate_cell
from repro.experiments.workloads import scale_from_env
from repro.experiments.tables import table1
from repro.experiments.workloads import figure_mandelbrot, figure_psia

__all__ = [
    "FIGURES",
    "Cell",
    "FigureResult",
    "FigureSpec",
    "GridRunner",
    "VariantResult",
    "VariantSpec",
    "dcc_variant",
    "fault_variant",
    "figure_mandelbrot",
    "figure_psia",
    "placement_variant",
    "run_figure",
    "run_sync_illustration",
    "run_variant",
    "scale_from_env",
    "simulate_cell",
    "table1",
]
