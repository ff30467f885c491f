"""Systemic-variation models.

The paper attributes load imbalance to "problem characteristics,
algorithmic, and systemic variations".  The first two come from the
workload cost traces; this module supplies the third: per-core speed
scatter and multiplicative OS noise applied to each executed chunk.

The default used for figure reproduction is mild
(``per_core_sigma=0.5%``, ``jitter_sigma=1%``) — the paper's testbed is
a dedicated homogeneous cluster, so algorithmic imbalance dominates —
but tests and ablations exercise much noisier settings.

Conventions: noise factors are dimensionless multipliers applied to
execution times (which are in seconds); per-core draws are indexed by
``node * ppn + core`` in node order, never by MPI rank — the execution
models own the rank mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class NoiseModel:
    """Deterministic (seeded) execution-time perturbation model.

    Parameters
    ----------
    per_core_sigma:
        Log-normal sigma of a *static* per-core speed factor, drawn once
        per core.  Models silicon/thermal variation.
    jitter_sigma:
        Log-normal sigma of a *per-chunk* multiplicative jitter.  Models
        OS interference, cache state, etc.
    seed_tag:
        Mixed into RNG stream names so different models draw
        independent perturbations from the same simulator seed.
    """

    per_core_sigma: float = 0.005
    jitter_sigma: float = 0.01
    seed_tag: str = "noise"

    def core_factor(self, rng: np.random.Generator, n_cores: int) -> np.ndarray:
        """Static speed factors, one per core (multiply nominal speed)."""
        if self.per_core_sigma <= 0.0:
            return np.ones(n_cores)
        return np.exp(rng.normal(0.0, self.per_core_sigma, size=n_cores))

    def chunk_jitter(self, rng: np.random.Generator) -> float:
        """Multiplicative factor applied to one chunk's execution time.

        The scalar definition of one draw; runs take the same values in
        blocks through :meth:`jitter_source`.
        """
        if self.jitter_sigma <= 0.0:
            return 1.0
        return float(np.exp(rng.normal(0.0, self.jitter_sigma)))

    def jitter_source(self, sim: "Simulator") -> Optional[Callable[[], float]]:
        """Per-chunk jitter factors of one run, in draw order.

        Each call of the returned function yields the multiplicative
        factor for the next executed chunk, drawn from the simulator's
        buffered ``chunk-jitter.<seed_tag>`` stream.  None when
        ``jitter_sigma`` is zero: the factor is then exactly 1 and the
        stream is never created.
        """
        if self.jitter_sigma <= 0.0:
            return None
        return sim.stream(
            f"chunk-jitter.{self.seed_tag}", jitter_block, self.jitter_sigma
        )


def jitter_block(rng: np.random.Generator, sigma: float, size: int) -> np.ndarray:
    """``size`` log-normal factors ``exp(normal(0, sigma))``.

    Equal element by element to ``size`` successive scalar draws
    ``float(np.exp(rng.normal(0.0, sigma)))``.  The block is
    exponentiated with ``np.exp``, never ``math.exp``: the two differ
    in the last ulp for some arguments.
    """
    return np.exp(rng.normal(0.0, sigma, size))


#: No perturbation at all — bit-exact analytic schedules (used heavily in tests).
NO_NOISE = NoiseModel(per_core_sigma=0.0, jitter_sigma=0.0, seed_tag="none")

#: Default for figure reproduction: dedicated, homogeneous testbed.
MILD_NOISE = NoiseModel(per_core_sigma=0.005, jitter_sigma=0.01, seed_tag="mild")

#: A deliberately hostile environment for robustness tests/ablations.
HARSH_NOISE = NoiseModel(per_core_sigma=0.05, jitter_sigma=0.15, seed_tag="harsh")
