"""PSIA workload: the Parallel Spin-Image Algorithm.

The paper's second kernel (Section 4).  The spin-image algorithm
(Johnson 1997) converts a 3-D object into a set of 2-D images: for each
*oriented point* ``p`` with normal ``n``, every other surface point
``x`` inside the support is projected into cylindrical coordinates

    alpha = sqrt(|x - p|^2 - (n . (x - p))^2)      (radial distance)
    beta  = n . (x - p)                            (elevation)

and accumulated into a 2-D histogram — the spin image.  One *loop
iteration* generates one spin image; its cost is proportional to the
number of surface points inside the support sphere, so the imbalance
comes from surface sampling density.  PSIA therefore has much milder
imbalance than Mandelbrot (the paper's discussion of Figures 4-7 relies
on this), which we reproduce with a synthetic object made of a uniform
sphere plus a denser cluster cap.

Everything is computed for real: point cloud, k-d tree neighbourhoods,
and (on demand) the actual spin images.  Costs are seconds; iteration
``i`` is the spin image of surface point ``i``, a loop position, never
an MPI rank.  SciPy (for the k-d tree) is imported on the first PSIA
build, so processes that never build PSIA do not load it.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.workloads.base import Workload


def synthetic_object(
    n_points: int,
    cluster_fraction: float = 0.3,
    cluster_spread: float = 0.35,
    seed: int = 1234,
) -> Tuple[np.ndarray, np.ndarray]:
    """A synthetic 3-D surface: points + outward normals.

    A unit sphere sampled uniformly, with ``cluster_fraction`` of the
    points concentrated in a Gaussian cap around the north pole — the
    density contrast produces the mild neighbourhood-size variation
    that gives PSIA its (low) load imbalance.
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    if not 0.0 <= cluster_fraction < 1.0:
        raise ValueError("cluster_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    n_cluster = int(n_points * cluster_fraction)
    n_uniform = n_points - n_cluster

    # uniform sphere sampling via normalised Gaussians
    g = rng.normal(size=(n_uniform, 3))
    uniform = g / np.linalg.norm(g, axis=1, keepdims=True)

    # clustered cap: perturb the pole direction then renormalise
    pole = np.array([0.0, 0.0, 1.0])
    pert = rng.normal(scale=cluster_spread, size=(n_cluster, 3))
    cap = pole + pert
    cap = cap / np.linalg.norm(cap, axis=1, keepdims=True)

    points = np.concatenate([uniform, cap], axis=0)
    rng.shuffle(points, axis=0)
    normals = points.copy()  # unit sphere: normal == position
    return points, normals


def _check_support_radius(support_radius: float) -> None:
    if not (math.isfinite(support_radius) and support_radius > 0.0):
        raise ValueError(
            f"support_radius must be finite and > 0, got {support_radius!r}"
        )


def neighbourhood_sizes(points: np.ndarray, support_radius: float) -> np.ndarray:
    """Number of surface points within the support sphere of each point.

    Counts include the point itself.  Imports SciPy's k-d tree on the
    first call; ``support_radius`` is checked before that import.
    """
    _check_support_radius(support_radius)
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    return np.asarray(
        tree.query_ball_point(points, r=support_radius, return_length=True),
        dtype=np.int64,
    )


def spin_image(
    points: np.ndarray,
    normals: np.ndarray,
    index: int,
    support_radius: float = 0.4,
    bins: int = 16,
) -> np.ndarray:
    """Compute the real spin image of oriented point ``index``.

    Returns a ``(bins, bins)`` histogram over (alpha, beta).  Used by
    the native backend and the PSIA example; the simulator only needs
    the cost vector.
    """
    p = points[index]
    n = normals[index]
    d = points - p
    beta = d @ n
    alpha_sq = np.einsum("ij,ij->i", d, d) - beta * beta
    alpha = np.sqrt(np.maximum(alpha_sq, 0.0))
    inside = (alpha <= support_radius) & (np.abs(beta) <= support_radius)
    inside[index] = False
    hist, _, _ = np.histogram2d(
        alpha[inside],
        beta[inside],
        bins=bins,
        range=[[0.0, support_radius], [-support_radius, support_radius]],
    )
    return hist


def psia_workload(
    n_points: int = 16384,
    support_radius: float = 0.4,
    bins: int = 16,
    point_time: float = 2.0e-7,
    base_time: float = 5.0e-6,
    cluster_fraction: float = 0.3,
    cluster_spread: float = 0.35,
    seed: int = 1234,
    total_seconds: Optional[float] = None,
) -> Workload:
    """Build the PSIA workload.

    One iteration = one spin image; ``cost_i = base_time + point_time *
    |neighbourhood(i)|`` with neighbourhoods measured on the real
    synthetic object via a k-d tree.  Raises ``ValueError`` unless
    ``support_radius`` is finite and positive.
    """
    _check_support_radius(support_radius)
    points, normals = synthetic_object(
        n_points,
        cluster_fraction=cluster_fraction,
        cluster_spread=cluster_spread,
        seed=seed,
    )
    sizes = neighbourhood_sizes(points, support_radius)
    costs = base_time + point_time * sizes.astype(np.float64)

    def executor(start: int, size: int) -> np.ndarray:
        """Really generate spin images [start, start+size); returns a
        stack of (bins, bins) histograms."""
        return np.stack(
            [
                spin_image(points, normals, i, support_radius, bins)
                for i in range(start, start + size)
            ]
        )

    workload = Workload(
        name=f"psia-{n_points}",
        costs=costs,
        meta={
            "kernel": "psia",
            "n_points": n_points,
            "support_radius": support_radius,
            "bins": bins,
            "point_time": point_time,
            "base_time": base_time,
            "cluster_fraction": cluster_fraction,
            "cluster_spread": cluster_spread,
            "seed": seed,
        },
        executor=executor,
    )
    if total_seconds is not None:
        workload = workload.scaled_to(total_seconds, name=workload.name)
    return workload
