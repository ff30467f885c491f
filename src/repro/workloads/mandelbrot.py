"""Mandelbrot workload: real escape-time iteration counts.

The paper uses Mandelbrot as the high-imbalance kernel (Section 4):
points inside the set cost ``max_iter`` inner iterations, points far
outside escape almost immediately, so per-pixel work varies by orders
of magnitude — exactly the "algorithmic variation" DLS techniques are
designed to absorb.

One *loop iteration* is one pixel (row-major), matching the single
large parallel loop the paper describes.  The cost vector is derived
from the true escape counts computed with a vectorised kernel; the
workload also carries a real executor so the native backend and the
examples can render actual images.

Costs are seconds (``base_time + iter_time * count``); iteration ``i``
is a pixel position in the loop, never an MPI rank.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.workloads.base import Workload

#: the classic full view of the set
DEFAULT_REGION = (-2.5, 1.0, -1.25, 1.25)


def escape_counts(
    width: int,
    height: int,
    max_iter: int = 512,
    region: Tuple[float, float, float, float] = DEFAULT_REGION,
) -> np.ndarray:
    """Escape-time iteration counts, shape ``(height, width)``.

    Vectorised over all active pixels; a pixel that never escapes costs
    the full ``max_iter`` iterations (these pixels create the load
    imbalance).
    """
    if width < 1 or height < 1 or max_iter < 1:
        raise ValueError("width, height, max_iter must be >= 1")
    x_min, x_max, y_min, y_max = region
    xs = np.linspace(x_min, x_max, width)
    ys = np.linspace(y_min, y_max, height)
    c_re = np.tile(xs, height)
    c_im = np.repeat(ys, width)

    # z and c are kept compacted to the live pixels; ``active`` maps
    # them back to pixel positions.  They shrink only on iterations
    # where some pixel escapes.
    z_re = np.zeros_like(c_re)
    z_im = np.zeros_like(c_im)
    counts = np.full(c_re.size, max_iter, dtype=np.int64)
    active = np.arange(c_re.size)

    for iteration in range(max_iter):
        zr2 = z_re * z_re
        zi2 = z_im * z_im
        escaped = zr2 + zi2 > 4.0
        if escaped.any():
            counts[active[escaped]] = iteration
            keep = ~escaped
            active = active[keep]
            if active.size == 0:
                break
            z_re = z_re[keep]
            z_im = z_im[keep]
            c_re = c_re[keep]
            c_im = c_im[keep]
            zr2 = zr2[keep]
            zi2 = zi2[keep]
        z_im = 2.0 * z_re * z_im + c_im
        z_re = zr2 - zi2 + c_re
    return counts.reshape(height, width)


def mandelbrot_workload(
    width: int = 256,
    height: int = 256,
    max_iter: int = 512,
    region: Tuple[float, float, float, float] = DEFAULT_REGION,
    iter_time: float = 1.0e-6,
    base_time: float = 2.0e-7,
    total_seconds: Optional[float] = None,
) -> Workload:
    """Build the Mandelbrot workload.

    Parameters
    ----------
    width, height, max_iter, region:
        Kernel parameters; iteration ``i`` is pixel ``(i // width,
        i % width)`` of the escape-count image.
    iter_time / base_time:
        Nominal seconds per inner iteration / fixed per-pixel overhead.
    total_seconds:
        If given, rescale so the serial time matches (calibration knob;
        the cost *shape* is unchanged).
    """
    counts = escape_counts(width, height, max_iter, region)
    costs = base_time + iter_time * counts.astype(np.float64).ravel()

    def executor(start: int, size: int) -> np.ndarray:
        """Really compute the escape counts of pixels [start, start+size)."""
        flat = counts.ravel()
        return flat[start : start + size].copy()

    workload = Workload(
        name=f"mandelbrot-{width}x{height}",
        costs=costs,
        meta={
            "kernel": "mandelbrot",
            "width": width,
            "height": height,
            "max_iter": max_iter,
            "region": region,
            "iter_time": iter_time,
            "base_time": base_time,
        },
        executor=executor,
    )
    if total_seconds is not None:
        workload = workload.scaled_to(total_seconds, name=workload.name)
    return workload


def render_ascii(
    counts: np.ndarray, width: int = 78, palette: str = " .:-=+*#%@"
) -> str:
    """Tiny ASCII rendering of an escape-count image (for examples)."""
    height = max(1, counts.shape[0] * width // (2 * counts.shape[1]))
    ys = (np.arange(height) * counts.shape[0] // height).astype(int)
    xs = (np.arange(width) * counts.shape[1] // width).astype(int)
    sampled = counts[np.ix_(ys, xs)].astype(float)
    lo, hi = sampled.min(), sampled.max()
    norm = (sampled - lo) / (hi - lo) if hi > lo else np.zeros_like(sampled)
    idx = (norm * (len(palette) - 1)).astype(int)
    return "\n".join("".join(palette[j] for j in row) for row in idx)
