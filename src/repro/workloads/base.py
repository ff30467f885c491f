"""The Workload abstraction: an iteration space with a cost vector.

Costs are nominal seconds on one nominal-speed core.  Iterations are
indexed by loop position ``0 .. n-1``, never by MPI rank; a block
``[start, start+size)`` outside ``[0, n)`` raises ``IndexError``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.technique_base import IterationProfile


class Workload:
    """A parallel loop: ``n`` independent iterations with known costs.

    Parameters
    ----------
    name:
        Diagnostic label (appears in reports).
    costs:
        Nominal per-iteration execution times in seconds on a
        nominal-speed core (1-D float array).
    meta:
        Free-form provenance (kernel parameters etc.).
    executor:
        Optional callable ``(start, size) -> Any`` that *really*
        performs the iterations (used by the native backend and the
        examples; the simulator only needs ``costs``, so a pickled
        workload drops it).

    Block costs are O(1) via a prefix-sum table — execution models
    price every sub-chunk, so this matters.  Scalar reads go through a
    plain-Python twin of the table (:meth:`cost_prefix`), built on first
    use and never pickled, so the per-chunk path does no NumPy scalar
    arithmetic.
    """

    def __init__(
        self,
        name: str,
        costs: np.ndarray,
        meta: Optional[Dict[str, Any]] = None,
        executor: Optional[Callable[[int, int], Any]] = None,
    ):
        costs = np.asarray(costs, dtype=np.float64)
        if costs.ndim != 1:
            raise ValueError(f"costs must be 1-D, got shape {costs.shape}")
        if costs.size and not np.isfinite(costs).all():
            raise ValueError("iteration costs must be finite (no NaN or inf)")
        if costs.size and costs.min() < 0:
            raise ValueError("iteration costs must be non-negative")
        self.name = name
        self.costs = costs
        self.meta = dict(meta or {})
        self.executor = executor
        self._prefix = np.concatenate(([0.0], np.cumsum(costs)))
        self._prefix_list: Optional[List[float]] = None
        #: (costs, name, digest) memo of
        #: :func:`repro.experiments.parallel.workload_fingerprint`
        self._fingerprint: Optional[Tuple[np.ndarray, str, str]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        # rebuilt on first use, per process
        state["_prefix_list"] = None
        state["_fingerprint"] = None
        # often a closure; a pool worker simulates, which needs only costs
        state["executor"] = None
        return state

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of loop iterations."""
        return int(self.costs.size)

    @property
    def total_cost(self) -> float:
        """Serial execution time on one nominal core."""
        return float(self._prefix[-1])

    def cost(self, i: int) -> float:
        """Nominal cost of iteration ``i``."""
        return float(self.costs[i])

    def cost_prefix(self) -> List[float]:
        """Prefix sums of the costs as Python floats (``n + 1`` entries).

        Entry ``i`` is the nominal cost of iterations ``[0, i)``: the
        NumPy prefix table converted entry by entry, so a difference of
        two entries is the same double NumPy would compute.  Built once
        per object.
        """
        prefix = self._prefix_list
        if prefix is None:
            prefix = self._prefix_list = self._prefix.tolist()
        return prefix

    def _check_block(self, start: int, size: int) -> None:
        if size < 0 or start < 0 or start + size > self.n:
            raise IndexError(
                f"block [{start}, {start + size}) outside loop of {self.n} iterations"
            )

    def block_cost(self, start: int, size: int) -> float:
        """Total nominal cost of iterations ``[start, start+size)`` (O(1))."""
        self._check_block(start, size)
        prefix = self.cost_prefix()
        return prefix[start + size] - prefix[start]

    def profile(self, h: float = 1.0e-6) -> IterationProfile:
        """The (mu, sigma) prior that FAC/TAP/FSC assume known."""
        if self.n == 0:
            raise ValueError("empty workload has no profile")
        mu = float(self.costs.mean())
        sigma = float(self.costs.std())
        return IterationProfile(mu=mu, sigma=sigma, h=h)

    @property
    def cov(self) -> float:
        """Coefficient of variation of iteration costs (imbalance proxy)."""
        mu = self.costs.mean()
        return float(self.costs.std() / mu) if mu > 0 else 0.0

    # ------------------------------------------------------------------
    def scaled_to(self, total_seconds: float, name: Optional[str] = None) -> "Workload":
        """A copy rescaled so the serial time equals ``total_seconds``.

        This is how absolute magnitudes are calibrated to the paper's
        reported numbers without touching the cost *shape* (see
        :mod:`repro.experiments.intext`).
        """
        if self.total_cost <= 0:
            raise ValueError("cannot scale a zero-cost workload")
        factor = total_seconds / self.total_cost
        out = Workload(
            name=name or f"{self.name}@{total_seconds:g}s",
            costs=self.costs * factor,
            meta={**self.meta, "scaled_from": self.name, "scale_factor": factor},
            executor=self.executor,
        )
        return out

    def subset(self, n: int, name: Optional[str] = None) -> "Workload":
        """First ``n`` iterations (for quick tests)."""
        if not 0 <= n <= self.n:
            raise ValueError(f"cannot take {n} of {self.n} iterations")
        return Workload(
            name=name or f"{self.name}[:{n}]",
            costs=self.costs[:n],
            meta=dict(self.meta),
            executor=self.executor,
        )

    def execute(self, start: int, size: int) -> Any:
        """Really run iterations ``[start, start+size)`` (native backend).

        Requires an executor; raises ``IndexError`` for a block outside
        ``[0, n)``, as :meth:`block_cost` does.
        """
        if self.executor is None:
            raise NotImplementedError(f"workload {self.name!r} has no real executor")
        self._check_block(start, size)
        return self.executor(start, size)

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}, n={self.n}, total={self.total_cost:.4g}s, "
            f"cov={self.cov:.3f})"
        )
