"""Synthetic cost-distribution workloads for tests and ablations.

Each generator produces a :class:`~repro.workloads.base.Workload` with
per-iteration costs drawn from a named distribution — the standard way
the DLS literature studies technique behaviour under controlled
variability (constant/uniform/gaussian/exponential loads appear in the
factoring and AWF papers).

Conventions: costs are nominal seconds per iteration, indexed by loop
position ``0 .. n-1``, never by rank.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.workloads.base import Workload


def _finalize(name: str, costs: np.ndarray, meta: dict) -> Workload:
    # execution times cannot be negative whatever the distribution says
    costs = np.maximum(costs, 1e-12)
    return Workload(name=name, costs=costs, meta=meta)


def constant_workload(n: int, cost: float = 1.0e-3) -> Workload:
    """Perfectly balanced iterations (STATIC's best case)."""
    if cost <= 0:
        raise ValueError("cost must be positive")
    return _finalize(
        f"constant-{n}",
        np.full(n, cost),
        {"kernel": "constant", "cost": cost},
    )


def uniform_workload(
    n: int, low: float = 0.5e-3, high: float = 1.5e-3, seed: int = 0
) -> Workload:
    """Uniform(low, high) iteration costs."""
    if not 0 < low <= high:
        raise ValueError("need 0 < low <= high")
    rng = np.random.default_rng(seed)
    return _finalize(
        f"uniform-{n}",
        rng.uniform(low, high, size=n),
        {"kernel": "uniform", "low": low, "high": high, "seed": seed},
    )


def gaussian_workload(
    n: int, mu: float = 1.0e-3, sigma: float = 2.0e-4, seed: int = 0
) -> Workload:
    """Gaussian(mu, sigma) costs, clipped at a tiny positive floor."""
    if mu <= 0 or sigma < 0:
        raise ValueError("need mu > 0 and sigma >= 0")
    rng = np.random.default_rng(seed)
    return _finalize(
        f"gaussian-{n}",
        rng.normal(mu, sigma, size=n),
        {"kernel": "gaussian", "mu": mu, "sigma": sigma, "seed": seed},
    )


def exponential_workload(n: int, mu: float = 1.0e-3, seed: int = 0) -> Workload:
    """Exponential(mu) costs — heavy-ish tail, cov = 1."""
    if mu <= 0:
        raise ValueError("need mu > 0")
    rng = np.random.default_rng(seed)
    return _finalize(
        f"exponential-{n}",
        rng.exponential(mu, size=n),
        {"kernel": "exponential", "mu": mu, "seed": seed},
    )


def bimodal_workload(
    n: int,
    fast: float = 0.2e-3,
    slow: float = 5.0e-3,
    slow_fraction: float = 0.2,
    seed: int = 0,
) -> Workload:
    """A mix of cheap and expensive iterations (Mandelbrot-like)."""
    if not 0 <= slow_fraction <= 1:
        raise ValueError("slow_fraction in [0, 1]")
    rng = np.random.default_rng(seed)
    slow_mask = rng.random(n) < slow_fraction
    costs = np.where(slow_mask, slow, fast)
    return _finalize(
        f"bimodal-{n}",
        costs,
        {
            "kernel": "bimodal",
            "fast": fast,
            "slow": slow,
            "slow_fraction": slow_fraction,
            "seed": seed,
        },
    )


def banded_workload(
    n: int,
    fast: float = 0.2e-3,
    slow: float = 5.0e-3,
    band: tuple = (0.4, 0.6),
) -> Workload:
    """A contiguous expensive band inside a cheap loop.

    This is the *spatial* structure of Mandelbrot imbalance (the
    in-set region occupies contiguous index ranges in row-major order).
    Unlike :func:`bimodal_workload`, a pinned static split cannot
    average it away: whole slices land inside the band — which is what
    makes the implicit OpenMP barrier so costly in the paper's
    ``X+STATIC`` measurements.
    """
    lo, hi = band
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("band must satisfy 0 <= lo < hi <= 1")
    costs = np.full(n, fast)
    costs[int(lo * n) : int(hi * n)] = slow
    return _finalize(
        f"banded-{n}",
        costs,
        {"kernel": "banded", "fast": fast, "slow": slow, "band": band},
    )


def ramp_workload(
    n: int,
    first: float = 2.0e-3,
    last: float = 0.1e-3,
) -> Workload:
    """Linearly decreasing (or increasing) costs.

    Decreasing ramps are TSS's motivating case; increasing ramps
    (``first < last``) are adversarial for techniques with large
    initial chunks (the paper's remark about FAC2 vs GSS when expensive
    iterations come first is about the decreasing case).
    """
    if first <= 0 or last <= 0:
        raise ValueError("endpoints must be positive")
    return _finalize(
        f"ramp-{n}",
        np.linspace(first, last, max(n, 1))[:n],
        {"kernel": "ramp", "first": first, "last": last},
    )
