"""Workloads (substrate S8): the loops whose iterations get scheduled.

A :class:`~repro.workloads.base.Workload` is an iteration space plus a
vector of nominal per-iteration execution times.  The two paper
workloads derive their cost vectors from **real kernels**:

* :mod:`repro.workloads.mandelbrot` — true escape-time iteration counts
  over the complex plane (high algorithmic imbalance, the paper's
  stress case);
* :mod:`repro.workloads.psia` — the Parallel Spin-Image Algorithm:
  per-point neighbourhood sizes of a synthetic 3-D object determine the
  cost of generating each spin image (mild imbalance).

:mod:`repro.workloads.synthetic` provides distributional generators
(constant/uniform/gaussian/exponential/bimodal/ramp) for tests and
ablations, and :mod:`repro.workloads.traces` persists cost traces and
generates adversarial stress traces (spike/ramp/bimodal structure
built to provoke adaptive technique selection).

Conventions: every cost is in seconds on one nominal-speed core, and an
iteration index is a loop position in ``[0, n)``, never an MPI rank —
which rank executes an iteration is the scheduler's decision.  Only
the PSIA builder needs SciPy, imported on the first PSIA build.
"""

from repro.workloads.base import Workload
from repro.workloads.mandelbrot import mandelbrot_workload
from repro.workloads.psia import psia_workload
from repro.workloads.synthetic import (
    banded_workload,
    bimodal_workload,
    constant_workload,
    exponential_workload,
    gaussian_workload,
    ramp_workload,
    uniform_workload,
)
from repro.workloads.traces import (
    ADVERSARIAL_KINDS,
    adversarial_workload,
    load_trace,
    save_trace,
)

__all__ = [
    "ADVERSARIAL_KINDS",
    "Workload",
    "adversarial_workload",
    "banded_workload",
    "bimodal_workload",
    "constant_workload",
    "exponential_workload",
    "gaussian_workload",
    "load_trace",
    "mandelbrot_workload",
    "psia_workload",
    "ramp_workload",
    "save_trace",
    "uniform_workload",
]
