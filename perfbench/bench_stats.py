"""Order statistics and the noise-aware verdict behind ``run.py compare``.

A regression bound is a share of the baseline median (``0.10`` = 10 %).
Two result sets are compared per (workload, metric) from their per-run
values: each side's median and quartiles, a bound widened for small run
counts, and a verdict of ``better``, ``worse``, ``unchanged`` or
``unresolved``.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: bound multiplier by run count, after run-perf's ``get_uncertainty``:
#: one run says little about the spread, nine or more are taken at face
#: value (x7 at n=1, x1.4 at n=4, x1.2 at n=8, x1 from n=9)
_UNCERTAINTY = {1: 7.0, 2: 2.0, 3: 1.6, 4: 1.4, 5: 1.3, 6: 1.3, 7: 1.2, 8: 1.2}


def uncertainty(n_runs: int) -> float:
    """Factor by which a bound widens when only ``n_runs`` runs back it."""
    if n_runs <= 0:
        raise ValueError(f"need at least one run, got {n_runs}")
    return _UNCERTAINTY.get(n_runs, 1.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own median and quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a 0 median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    baseline: Sequence[float],
    candidate: Sequence[float],
    bound: float,
    better: str,
) -> str:
    """Judge ``candidate`` runs against ``baseline`` runs of one metric.

    The bound widens by :func:`uncertainty` of the smaller run count.
    A row whose quartile spread on either side exceeds the (unwidened)
    bound is ``unresolved`` -- unless every run of one side beats every
    run of the other, which no amount of noise explains away.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    base = quartiles(baseline)[1]
    cand = quartiles(candidate)[1]
    if base == cand:
        change = 0.0
    elif base == 0:
        change = float("inf") if cand > base else float("-inf")
    else:
        change = (cand - base) / abs(base)
    worse_by = change if better == "lower" else -change
    separated = max(candidate) < min(baseline) or max(baseline) < min(candidate)
    if max(spread(baseline), spread(candidate)) > bound and not separated:
        return "unresolved"
    band = bound * uncertainty(min(len(baseline), len(candidate)))
    if worse_by > band:
        return "worse"
    if worse_by < -band:
        return "better"
    return "unchanged"


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's per-run values."""
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}
