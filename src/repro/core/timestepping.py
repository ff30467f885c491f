"""Time-stepped execution: AWF across outer application iterations.

Adaptive weighted factoring (Banicescu, Velusamy & Devaprasad 2003) was
designed for *iterative* scientific applications: the same parallel
loop executes once per time step, and the PE weights used by WF in step
``t+1`` are derived from the measured performance of steps ``0..t``.
The paper's Section 2 cites AWF as one of the derived techniques its
selected roster underpins; this module supplies the missing driver so
the library covers that use-case end to end.

:class:`TimeSteppedLoop` runs an execution model repeatedly, measures
each PE-group's effective rate (iterations per busy second), maintains
cumulative time-step-weighted averages, and feeds the refreshed weights
into the inter-node level for the next step.

Index convention: weights are indexed by inter-level PE, the node
index for hierarchical models and the rank for the flat ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.core.hierarchy import HierarchicalSpec, LevelSpec
from repro.models.base import ExecutionModel, RunResult
from repro.workloads.base import Workload


@dataclass
class TimeStepRecord:
    """Outcome of one time step."""

    step: int
    parallel_time: float
    weights_used: np.ndarray
    rates_measured: np.ndarray

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeStepRecord(step={self.step}, T={self.parallel_time:.4g}s, "
            f"weights={np.round(self.weights_used, 3)})"
        )


class TimeSteppedLoop:
    """Drive an iterative application with AWF weight refresh.

    Parameters
    ----------
    model / workload / cluster:
        As for a single :meth:`ExecutionModel.run`.
    inter / intra:
        Technique names; the inter level receives the adapted weights,
        so it should be a weighted technique (``WF``/``AWF``) — other
        techniques run unweighted and the driver only records rates.
    ppn:
        Workers per node.
    smoothing:
        Exponential-moving-average factor for rate updates in (0, 1];
        1.0 replaces old measurements entirely (the classic AWF uses
        the cumulative mean — ``smoothing=None`` selects that).
    """

    def __init__(
        self,
        model: ExecutionModel,
        workload: Workload,
        cluster: ClusterSpec,
        inter: str = "AWF",
        intra: str = "GSS",
        ppn: Optional[int] = None,
        smoothing: Optional[float] = None,
        seed: int = 0,
    ):
        self.model = model
        self.workload = workload
        self.cluster = cluster
        self.inter = inter
        self.intra = intra
        self.ppn = ppn if ppn is not None else min(n.cores for n in cluster.nodes)
        self.smoothing = smoothing
        self.seed = seed
        self.history: List[TimeStepRecord] = []
        #: PEs at the inter level: nodes for hierarchical models,
        #: individual workers for the flat/master-worker baselines
        self.n_pes = model.inter_pe_count(cluster, self.ppn)
        self._weights = np.ones(self.n_pes)
        self._rate_sum = np.zeros(self.n_pes)
        self._rate_count = 0
        self._ema: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Current per-node weights (normalised to sum to n_nodes)."""
        return self._weights.copy()

    def run_step(self) -> RunResult:
        """Execute one time step and refresh the weights."""
        step = len(self.history)
        spec = HierarchicalSpec(
            inter=LevelSpec.of(self.inter, weights=self._weights),
            intra=LevelSpec.of(self.intra),
        )
        result = self.model.run(
            workload=self.workload,
            cluster=self.cluster,
            spec=spec,
            ppn=self.ppn,
            seed=self.seed + step,  # fresh noise draw per time step
            collect_chunks=False,
        )
        rates = self._measure_rates(result)
        self._update_weights(rates)
        self.history.append(
            TimeStepRecord(
                step=step,
                parallel_time=result.parallel_time,
                weights_used=spec.inter.weights.copy()
                if isinstance(spec.inter.weights, np.ndarray)
                else np.asarray(spec.inter.weights),
                rates_measured=rates,
            )
        )
        return result

    def run(self, n_steps: int) -> List[TimeStepRecord]:
        """Execute ``n_steps`` time steps; returns the history."""
        for _ in range(n_steps):
            self.run_step()
        return self.history

    # ------------------------------------------------------------------
    def _measure_rates(self, result: RunResult) -> np.ndarray:
        """Per-inter-PE iterations/second from the step's worker stats."""
        p = self.n_pes
        work = np.zeros(p)
        busy = np.zeros(p)
        workers = [w for w in result.metrics.workers if "master" not in w.name]
        if p == self.cluster.n_nodes:
            # hierarchical: aggregate workers by node
            for worker in workers:
                work[worker.node] += worker.n_iterations
                busy[worker.node] += worker.compute_time
        else:
            # flat/master-worker: one PE per worker, in rank order
            for pe, worker in enumerate(workers[:p]):
                work[pe] += worker.n_iterations
                busy[pe] += worker.compute_time
        rates = np.ones(p)
        measured = busy > 0
        rates[measured] = work[measured] / busy[measured]
        if measured.any():
            rates[~measured] = rates[measured].mean()
        return rates

    def _update_weights(self, rates: np.ndarray) -> None:
        if self.smoothing is None:
            # classic AWF: cumulative mean over all completed steps
            self._rate_sum += rates
            self._rate_count += 1
            mean = self._rate_sum / self._rate_count
        else:
            alpha = float(self.smoothing)
            if not 0.0 < alpha <= 1.0:
                raise ValueError("smoothing must be in (0, 1]")
            self._ema = (
                rates.copy() if self._ema is None
                else alpha * rates + (1 - alpha) * self._ema
            )
            mean = self._ema
        self._weights = mean * (len(mean) / mean.sum())

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One line per executed time step: its time and the weights used."""
        lines = [
            f"time-stepped {self.inter}+{self.intra} on "
            f"{self.cluster.n_nodes} nodes x {self.ppn}:",
        ]
        for record in self.history:
            lines.append(
                f"  step {record.step}: T={record.parallel_time:.4g}s  "
                f"weights={np.round(record.weights_used, 3).tolist()}"
            )
        return "\n".join(lines)
