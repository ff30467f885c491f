"""Calibrated figure workloads.

These builders pin down the exact kernels behind Figures 4-7.  The
paper does not publish its Mandelbrot/PSIA configuration, so the
reproduction fixes parameters with two goals:

* **Mandelbrot** — strong, spatially structured imbalance.  We compute
  the lower half-plane ``y in [-1.25, 0)`` so per-row cost *increases*
  along the row-major loop: the dense rows land in the smaller, later
  chunks of the decreasing-chunk techniques, which is the structure
  under which the hierarchical barrier effects are visible (if the
  whole dense band sits inside GSS's giant first chunk, a single
  sub-chunk becomes the critical path for *both* approaches and every
  combination degenerates to a tie).
* **PSIA** — mild imbalance (cov ~0.5 vs Mandelbrot's ~2.0) with
  *shuffled* iteration order, reproducing the paper's observation that
  the MPI+MPI advantages/penalties are less pronounced for PSIA.

Granularity (mean iteration cost ~50-70 us) is chosen so that the MPI
shared-memory lock path (~5 us + polling) is visible for ``X+SS`` but
negligible for coarse techniques — the paper's central trade-off.

Workloads are cached per scale: building the Mandelbrot escape counts
and the PSIA k-d tree neighbourhoods is much more expensive than a
single simulated run.  Costs are seconds; iteration indices are loop
positions, never MPI ranks.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.workloads.base import Workload
from repro.workloads.mandelbrot import mandelbrot_workload
from repro.workloads.psia import psia_workload

#: figure region: lower half-plane => cost increases along the loop
FIGURE_REGION = (-2.5, 1.0, -1.25, 0.0)

#: named scales: (mandelbrot size, psia points)
SCALES: Dict[str, Tuple[int, int]] = {
    "tiny": (64, 4096),      # CI smoke
    "quick": (128, 16384),   # tests
    "default": (256, 65536),  # benchmark figures
    "full": (512, 262144),   # high-resolution figures (slow)
}

_CACHE: Dict[Tuple[str, str], Workload] = {}


def scale_from_env(default: str = "default") -> str:
    """Figure scale from ``REPRO_SCALE`` (tiny/quick/default/full)."""
    scale = os.environ.get("REPRO_SCALE", default).lower()
    if scale not in SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(SCALES)}, got {scale!r}")
    return scale


def _sizes(scale: str) -> Tuple[int, int]:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    return SCALES[scale]


def figure_mandelbrot(scale: str = "default", total_seconds: Optional[float] = None) -> Workload:
    """The Mandelbrot workload behind Figures 4a-7a."""
    key = ("mandelbrot", scale, total_seconds)
    if key not in _CACHE:
        size, _ = _sizes(scale)
        wl = mandelbrot_workload(
            width=size,
            height=size,
            max_iter=512,
            region=FIGURE_REGION,
            iter_time=0.5e-6,
            base_time=0.5e-6,
        )
        if total_seconds is not None:
            wl = wl.scaled_to(total_seconds, name=wl.name)
        _CACHE[key] = wl
    return _CACHE[key]


def figure_psia(scale: str = "default", total_seconds: Optional[float] = None) -> Workload:
    """The PSIA workload behind Figures 4b-7b."""
    key = ("psia", scale, total_seconds)
    if key not in _CACHE:
        _, n_points = _sizes(scale)
        # point_time keeps PSIA coarser-grained than Mandelbrot (mean
        # ~150 us vs ~47 us): spin images are full neighbourhood scans,
        # and the paper's PSIA results show milder scheduling effects.
        wl = psia_workload(
            n_points=n_points,
            support_radius=0.2,
            cluster_fraction=0.25,
            cluster_spread=0.5,
            point_time=0.18e-6,
            base_time=5.0e-6,
            seed=1234,
        )
        if total_seconds is not None:
            wl = wl.scaled_to(total_seconds, name=wl.name)
        _CACHE[key] = wl
    return _CACHE[key]


def figure_workload(
    app: str, scale: str = "default", total_seconds: Optional[float] = None
) -> Workload:
    """Dispatch by application name (``mandelbrot`` / ``psia``);
    ``total_seconds`` rescales the total work as in the builders."""
    app = app.lower()
    if app == "mandelbrot":
        return figure_mandelbrot(scale, total_seconds)
    if app == "psia":
        return figure_psia(scale, total_seconds)
    raise ValueError(f"unknown figure application {app!r}")


def clear_cache() -> None:
    """Drop cached workloads (tests use this to bound memory)."""
    _CACHE.clear()
