"""Load-balance and overhead metrics.

The paper reports the *parallel execution time of the main loop*
(Figures 4-7).  For analysis and tests we additionally compute the
standard DLS quality metrics used throughout the cited literature:
coefficient of variation of PE finish times, max/mean load imbalance,
idle fraction, and the scheduling-overhead share.

Conventions: every time is simulated seconds from the loop start, and
every fraction is a share of the parallel time.  A worker is one
processing element, named by its rank; ``WorkerStats.node`` is the
node index it ran on, and ``LoadMetrics.workers`` lists workers in rank
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class WorkerStats:
    """Per-worker accounting extracted from its simulated process."""

    name: str
    node: int
    finish_time: float
    compute_time: float
    overhead_time: float
    #: explicit idle + implicit event-wait time
    idle_time: float
    n_chunks: int
    n_iterations: int


@dataclass(frozen=True)
class LoadMetrics:
    """Aggregate quality metrics for one parallel loop execution."""

    #: the headline number: max worker finish time (loop start = 0)
    parallel_time: float
    #: coefficient of variation of worker finish (busy-until) times
    cov_finish: float
    #: max(compute_time) / mean(compute_time) — classic imbalance factor
    imbalance: float
    #: mean fraction of the parallel time workers spent idle/waiting
    idle_fraction: float
    #: mean fraction of the parallel time spent in scheduling overhead
    overhead_fraction: float
    #: total chunks obtained across all workers (both levels combined)
    total_chunks: int
    #: per-worker records, in rank order
    workers: tuple = field(default_factory=tuple, repr=False)

    def summary(self) -> str:
        """One line of the headline metrics (times in seconds)."""
        return (
            f"T_par={self.parallel_time:.4g}s  cov={self.cov_finish:.3f}  "
            f"imb={self.imbalance:.3f}  idle={self.idle_fraction:.1%}  "
            f"ovh={self.overhead_fraction:.2%}  chunks={self.total_chunks}"
        )


def compute_metrics(workers: Sequence[WorkerStats]) -> LoadMetrics:
    """Reduce per-worker stats into :class:`LoadMetrics`.

    ``finish_time`` here is each worker's *last useful activity* time;
    the parallel time is their maximum.  A degenerate run (no workers or
    zero time) produces zeroed metrics rather than NaNs so callers can
    assert on it cleanly.
    """
    if not workers:
        return LoadMetrics(0.0, 0.0, 0.0, 0.0, 0.0, 0, ())
    finish = np.array([w.finish_time for w in workers])
    compute = np.array([w.compute_time for w in workers])
    overhead = np.array([w.overhead_time for w in workers])
    idle = np.array([w.idle_time for w in workers])

    t_par = float(finish.max())
    mean_finish = float(finish.mean())
    cov = float(finish.std() / mean_finish) if mean_finish > 0 else 0.0
    mean_compute = float(compute.mean())
    imbalance = float(compute.max() / mean_compute) if mean_compute > 0 else 0.0
    idle_fraction = float((idle / t_par).mean()) if t_par > 0 else 0.0
    overhead_fraction = float((overhead / t_par).mean()) if t_par > 0 else 0.0
    return LoadMetrics(
        parallel_time=t_par,
        cov_finish=cov,
        imbalance=imbalance,
        idle_fraction=idle_fraction,
        overhead_fraction=overhead_fraction,
        total_chunks=int(sum(w.n_chunks for w in workers)),
        workers=tuple(workers),
    )


def speedup_series(times: Dict[int, float]) -> Dict[int, float]:
    """Relative speedup over the smallest configuration in a scaling sweep."""
    if not times:
        return {}
    base_nodes = min(times)
    base = times[base_nodes]
    return {n: base / t if t > 0 else float("inf") for n, t in sorted(times.items())}


def parallel_efficiency(times: Dict[int, float]) -> Dict[int, float]:
    """Strong-scaling efficiency vs the smallest configuration."""
    speedups = speedup_series(times)
    if not speedups:
        return {}
    base_nodes = min(times)
    return {n: s * base_nodes / n for n, s in speedups.items()}
