"""The DLS technique roster.

Implements the paper's five evaluated techniques — STATIC, SS, GSS, TSS,
FAC2 — plus the wider family they are drawn from (paper Section 2 and
the authors' DLS4LB library): FSC, mFSC, TAP, TFSS, FAC, FISS, VISS,
WF, AWF, AWF-B/C/D/E, AF and RND.

Formulas follow the original publications:

* STATIC — one chunk of ``ceil(N/P)`` per PE.
* SS   — Tang & Yew 1986: chunk = 1.
* FSC  — Kruskal & Weiss 1985: fixed chunk
  ``(sqrt(2)*N*h / (sigma*P*sqrt(log P)))^(2/3)``.
* mFSC — profiling-free FSC variant: fixed chunk sized so the chunk
  *count* matches FAC2's batch structure (P chunks per halving batch),
  i.e. ``ceil(N / (P*ceil(log2(N/P))))``.
* GSS  — Polychronopoulos & Kuck 1987: ``C_i = ceil(R_i/P)``.
* TAP  — Lucco 1992 tapering: ``C_i = T_i + v^2/2 - v*sqrt(2*T_i + v^2/4)``
  with ``T_i = R_i/P`` and ``v = alpha*sigma/mu``; ``(mu, sigma)`` are
  estimated **at runtime** from completed chunks (``record``), with an
  optional a-priori profile as the prior.
* TSS  — Tzen & Ni 1993: linear decrement from ``F = ceil(N/(2P))`` to
  ``L = 1`` over ``S = ceil(2N/(F+L))`` steps.
* TFSS — Chronopoulos et al. 2001: batches of P chunks, each the mean
  of the next P TSS chunks.
* FAC  — Flynn Hummel, Schonberg & Flynn 1992 probabilistic factoring
  (needs sigma, mu).
* FAC2 — the practical variant: every batch schedules half the
  remainder, ``C_j = ceil(R_j/(2P))``.
* FISS — fixed-increase self-scheduling (LB4OMP roster): ``B`` stages
  of ``P`` equal chunks starting at ``C_0 = N/((2+B)P)`` and growing
  by the fixed increment ``b = 4N/((2+B)·B·(B-1)·P)`` per stage.
* VISS — variable-increase self-scheduling: FISS whose increment
  halves every stage, ``C_j = C_{j-1} + C_0/2^j``.
* WF   — Flynn Hummel et al. 1996 weighted factoring: FAC2 batch chunk
  scaled by the requesting PE's fixed weight.
* AWF  — Banicescu, Velusamy & Devaprasad 2003: WF with weights adapted
  between outer *time steps* of an iterative application.
* AWF-B/C/D/E — Cariño & Banicescu 2008 variants adapting weights
  during the loop: at batch (B, D) or chunk (C, E) boundaries, from
  compute time only (B, C) or compute + scheduling overhead (D, E).
* AF   — Banicescu & Liu 2000 adaptive factoring: FAC with per-PE
  (mu_k, sigma_k) estimated online from completed chunks.
* RND  — uniform random chunk in ``[N/(100P), N/(2P)]``
  (LaPeSD-libGOMP); **seeded-deterministic**: the whole sequence is a
  pure function of ``(N, P, seed)``, so RND memoises and flattens
  (dCC) like any other deterministic technique.
* ADAPT — runtime technique *selection* (see :mod:`repro.core.adaptive`):
  walks a configurable fineness ladder (default SS -> FAC2 -> GSS;
  ``ADAPT[ss,fac2,tss]`` spells a custom one) from observed
  chunk-fetch wait and iteration-time CoV.

Conventions: ``N`` iterations on ``P`` PEs, numbered ``0 .. P-1`` within
their scheduling level (a node index at the inter-node level, a
node-local rank below it); ``h``, ``mu`` and ``sigma`` are seconds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.technique_base import (
    ChunkCalculator,
    IterationProfile,
    Technique,
    TechniqueError,
    ceil_div,
)

# ---------------------------------------------------------------------------
# deterministic calculators
# ---------------------------------------------------------------------------


class _FixedSizeCalculator(ChunkCalculator):
    """All chunks share one precomputed size (STATIC, SS, FSC, mFSC)."""

    def __init__(self, name: str, n: int, p: int, size: int):
        super().__init__(name, n, p)
        self._size = max(1, int(size))

    def _next_size(self, remaining: int, step: int) -> int:
        return self._size

    # O(1) overrides: avoid materialising N entries for SS on big loops.
    def size_at(self, step: int, pe: Optional[int] = None) -> int:
        if step < 0:
            raise TechniqueError(f"negative scheduling step {step}")
        full, rest = divmod(self.n, self._size)
        total = full + (1 if rest else 0)
        if step >= total:
            return 0
        if step == total - 1 and rest:
            return rest
        return self._size

    def start_at(self, step: int) -> int:
        return min(self.n, step * self._size)

    def total_steps(self) -> int:
        return ceil_div(self.n, self._size) if self.n else 0

    def sequence(self) -> List[int]:
        return [self.size_at(i) for i in range(self.total_steps())]


class _GssCalculator(ChunkCalculator):
    def _next_size(self, remaining: int, step: int) -> int:
        return ceil_div(remaining, self.p)

    def _memo_key(self):
        return ("GSS", self.n, self.p)


class _TssCalculator(ChunkCalculator):
    """Linear decrement; also the basis for TFSS."""

    def __init__(self, name: str, n: int, p: int):
        super().__init__(name, n, p)
        self.first = max(1, ceil_div(n, 2 * p))
        self.last = 1
        self.steps = max(1, ceil_div(2 * n, self.first + self.last)) if n else 0
        self.delta = (
            (self.first - self.last) / (self.steps - 1) if self.steps > 1 else 0.0
        )

    def _next_size(self, remaining: int, step: int) -> int:
        return max(self.last, int(round(self.first - step * self.delta)))

    def _memo_key(self):
        # covers TFSS too: the subclass type disambiguates the key
        return (type(self).__name__, self.n, self.p)


class _TfssCalculator(_TssCalculator):
    """Batch mean of the underlying TSS sequence (closed form)."""

    def _next_size(self, remaining: int, step: int) -> int:
        batch = step // self.p
        # Mean of TSS sizes at steps batch*p .. batch*p + p-1:
        mean = self.first - self.delta * (batch * self.p + (self.p - 1) / 2.0)
        return max(self.last, int(round(mean)))


class _FacCalculator(ChunkCalculator):
    """Probabilistic factoring with a-priori (mu, sigma)."""

    def __init__(self, name: str, n: int, p: int, profile: IterationProfile):
        super().__init__(name, n, p)
        self.profile = profile
        self._batch_size: int = 0

    def _memo_key(self):
        return ("FAC", self.n, self.p, self.profile.mu, self.profile.sigma)

    def _next_size(self, remaining: int, step: int) -> int:
        if step % self.p == 0:
            ratio = self.profile.cov
            b = (self.p / (2.0 * math.sqrt(remaining))) * ratio if remaining else 0.0
            if step == 0:
                x = 1.0 + b * b + b * math.sqrt(b * b + 2.0)
            else:
                x = 2.0 + b * b + b * math.sqrt(b * b + 4.0)
            # x >= 1 by construction; sigma -> 0 gives x -> 1 for the
            # first batch, i.e. FAC degenerates towards STATIC.
            self._batch_size = max(1, int(math.ceil(remaining / (x * self.p))))
        return self._batch_size


class _Fac2Calculator(ChunkCalculator):
    def __init__(self, name: str, n: int, p: int):
        super().__init__(name, n, p)
        self._batch_size = 0

    def _next_size(self, remaining: int, step: int) -> int:
        if step % self.p == 0:
            self._batch_size = max(1, ceil_div(remaining, 2 * self.p))
        return self._batch_size

    def _memo_key(self):
        return ("FAC2", self.n, self.p)


class _StagedCalculator(ChunkCalculator):
    """Shared machinery for the stage-based FISS/VISS pair.

    The loop is planned as ``B`` *stages* of ``P`` equal chunks each
    (like FAC batches); the stage size starts small and grows by a
    technique-specific increment.  Integer rounding drift is absorbed
    by the base class: past the last planned stage the final stage size
    keeps being dispensed, clamped to the remainder.
    """

    def __init__(self, name: str, n: int, p: int, stages: Optional[int] = None):
        super().__init__(name, n, p)
        if stages is None:
            # mirror mFSC's batch count: one stage per halving of N/P
            stages = math.ceil(math.log2(n / p)) if n > p else 2
        self.stages = max(2, int(stages))

    def _stage_size(self, stage: int) -> float:
        raise NotImplementedError

    def _next_size(self, remaining: int, step: int) -> int:
        stage = min(step // self.p, self.stages - 1)
        return int(math.ceil(self._stage_size(stage)))

    def _memo_key(self):
        return (type(self).__name__, self.n, self.p, self.stages)


class _FissCalculator(_StagedCalculator):
    """Fixed-increase self-scheduling.

    ``C_0 = N/((2+B)P)`` and a constant per-stage increment
    ``b = 4N/((2+B)·B·(B-1)·P)`` — chosen so the planned stages sum to
    exactly ``N``: ``P·(B·C_0 + b·B(B-1)/2) = N``.
    """

    def _stage_size(self, stage: int) -> float:
        b = self.stages
        c0 = self.n / ((2 + b) * self.p)
        inc = 4.0 * self.n / ((2 + b) * b * (b - 1) * self.p)
        return c0 + stage * inc


class _VissCalculator(_StagedCalculator):
    """Variable-increase self-scheduling.

    FISS's ``C_0``, but the increment halves every stage:
    ``C_j = C_{j-1} + C_0/2^j``, i.e. closed-form
    ``C_j = C_0·(2 - 2^{-j})`` — sizes converge towards ``2·C_0``.
    """

    def _stage_size(self, stage: int) -> float:
        c0 = self.n / ((2 + self.stages) * self.p)
        return c0 * (2.0 - 0.5 ** stage)


class _TapCalculator(ChunkCalculator):
    """Lucco's tapering with runtime ``(mu, sigma)`` estimation.

    The variance margin ``v = alpha·sigma/mu`` is re-estimated from
    completed chunks reported through :meth:`record`; an optional
    a-priori :class:`IterationProfile` seeds the estimate, so the first
    chunks taper exactly as in the original a-priori formulation.
    Because the margin tracks runtime state the calculator is
    *adaptive* (scheduled-count protocol, no serial prefix, rejected by
    dCC).
    """

    deterministic = False
    adaptive = True

    def __init__(
        self,
        name: str,
        n: int,
        p: int,
        profile: Optional[IterationProfile] = None,
        alpha: float = 1.3,
    ):
        super().__init__(name, n, p)
        self.alpha = float(alpha)
        self._prior_cov = profile.cov if profile is not None else 0.0
        self._scheduled = 0
        self._count = 0
        self._sum_t = 0.0
        self._sum_t2 = 0.0

    def record(
        self, pe: int, size: int, compute_time: float, overhead_time: float = 0.0
    ) -> None:
        if size <= 0:
            return
        per_iter = compute_time / size
        self._count += 1
        self._sum_t += per_iter
        self._sum_t2 += per_iter * per_iter

    @property
    def cov(self) -> float:
        """Current sigma/mu estimate (the prior until two chunks report)."""
        if self._count < 2:
            return self._prior_cov
        mu = self._sum_t / self._count
        if mu <= 0:
            return self._prior_cov
        var = max(0.0, self._sum_t2 / self._count - mu * mu)
        return math.sqrt(var) / mu

    def size_at(self, step: int, pe: Optional[int] = None) -> int:
        remaining = self.n - self._scheduled
        if remaining <= 0:
            return 0
        v = self.alpha * self.cov
        t = remaining / self.p
        size = t + v * v / 2.0 - v * math.sqrt(2.0 * t + v * v / 4.0)
        size = max(1, min(int(math.ceil(size)), remaining))
        self._scheduled += size
        return size

    @property
    def scheduled(self) -> int:
        return self._scheduled


# ---------------------------------------------------------------------------
# PE-dependent / adaptive calculators
# ---------------------------------------------------------------------------


class _WeightedCalculator(ChunkCalculator):
    """Shared machinery for WF/AWF-*: weighted FAC2-style grabs.

    Each ``size_at`` call *consumes* work: the calculator tracks the
    scheduled total internally because chunk sizes depend on who asks
    (so no serial prefix exists).  ``start_at`` is therefore disabled by
    ``deterministic = False`` — execution models use the
    scheduled-count protocol instead.
    """

    deterministic = False

    def __init__(self, name: str, n: int, p: int, weights: np.ndarray):
        super().__init__(name, n, p)
        self.weights = np.asarray(weights, dtype=float)
        self._scheduled = 0

    def current_weight(self, pe: int) -> float:
        return float(self.weights[pe])

    def size_at(self, step: int, pe: Optional[int] = None) -> int:
        if pe is None:
            raise TechniqueError(f"{self.name} needs the requesting PE id")
        remaining = self.n - self._scheduled
        if remaining <= 0:
            return 0
        base = remaining / (2.0 * self.p)
        size = int(math.ceil(self.current_weight(pe) * base))
        size = max(1, min(size, remaining))
        self._scheduled += size
        return size

    @property
    def scheduled(self) -> int:
        return self._scheduled


class _AwfRuntimeCalculator(_WeightedCalculator):
    """AWF-B/C/D/E: weights adapted from runtime measurements.

    ``variant`` semantics (Cariño & Banicescu 2008):

    * B — adapt at *batch* boundaries, compute time only;
    * C — adapt at every *chunk*, compute time only;
    * D — batch boundaries, compute + scheduling overhead;
    * E — every chunk, compute + scheduling overhead.
    """

    adaptive = True

    def __init__(self, name: str, n: int, p: int, variant: str):
        super().__init__(name, n, p, np.ones(p))
        if variant not in ("B", "C", "D", "E"):
            raise TechniqueError(f"unknown AWF variant {variant!r}")
        self.variant = variant
        self._work = np.zeros(p)
        self._time = np.zeros(p)
        self._grabs_since_update = 0

    def _include_overhead(self) -> bool:
        return self.variant in ("D", "E")

    def _per_chunk_update(self) -> bool:
        return self.variant in ("C", "E")

    def record(
        self, pe: int, size: int, compute_time: float, overhead_time: float = 0.0
    ) -> None:
        self._work[pe] += size
        self._time[pe] += compute_time + (
            overhead_time if self._include_overhead() else 0.0
        )
        self._grabs_since_update += 1
        if self._per_chunk_update() or self._grabs_since_update >= self.p:
            self._refresh_weights()
            self._grabs_since_update = 0

    def _refresh_weights(self) -> None:
        measured = (self._time > 0) & (self._work > 0)
        if not np.any(measured):
            return
        rates = np.ones(self.p)
        rates[measured] = self._work[measured] / self._time[measured]
        # Unmeasured PEs get the mean measured rate (optimistic neutral).
        rates[~measured] = rates[measured].mean()
        self.weights = rates * (self.p / rates.sum())


class _AfCalculator(ChunkCalculator):
    """Adaptive factoring: FAC with per-PE (mu, sigma) estimated online.

    Until a PE has completed at least two chunks it falls back to the
    FAC2 halving rule, mirroring practical AF implementations that need
    a bootstrap phase.
    """

    deterministic = False
    adaptive = True

    def __init__(self, name: str, n: int, p: int):
        super().__init__(name, n, p)
        self._scheduled = 0
        self._count = np.zeros(p, dtype=int)
        self._sum_t = np.zeros(p)  # per-iteration times, accumulated
        self._sum_t2 = np.zeros(p)

    def record(
        self, pe: int, size: int, compute_time: float, overhead_time: float = 0.0
    ) -> None:
        if size <= 0:
            return
        per_iter = compute_time / size
        self._count[pe] += 1
        self._sum_t[pe] += per_iter
        self._sum_t2[pe] += per_iter * per_iter

    def _estimates(self, pe: int) -> Optional[tuple]:
        c = self._count[pe]
        if c < 2:
            return None
        mu = self._sum_t[pe] / c
        var = max(0.0, self._sum_t2[pe] / c - mu * mu)
        return mu, math.sqrt(var)

    def size_at(self, step: int, pe: Optional[int] = None) -> int:
        if pe is None:
            raise TechniqueError(f"{self.name} needs the requesting PE id")
        remaining = self.n - self._scheduled
        if remaining <= 0:
            return 0
        est = self._estimates(pe)
        if est is None or est[0] <= 0:
            size = ceil_div(remaining, 2 * self.p)  # FAC2 bootstrap
        else:
            mu, sigma = est
            b = (self.p / (2.0 * math.sqrt(remaining))) * (sigma / mu)
            x = 2.0 + b * b + b * math.sqrt(b * b + 4.0)
            size = int(math.ceil(remaining / (x * self.p)))
        size = max(1, min(size, remaining))
        self._scheduled += size
        return size

    @property
    def scheduled(self) -> int:
        return self._scheduled


class _RndCalculator(ChunkCalculator):
    """Random self-scheduling, seeded-deterministic.

    The whole sequence is a pure function of ``(n, p, seed)``: sizes
    are drawn from a private ``default_rng(seed)`` during
    materialisation, so RND memoises (and flattens under dCC) exactly
    like the closed-form techniques — every rank derives the identical
    schedule from the spec alone.
    """

    def __init__(self, name: str, n: int, p: int, seed: int):
        super().__init__(name, n, p)
        self.seed = int(seed)
        self.low = max(1, n // (100 * p)) if n else 1
        self.high = max(self.low, ceil_div(n, 2 * p)) if n else 1
        self._draw: Optional[np.random.Generator] = None

    def _next_size(self, remaining: int, step: int) -> int:
        if step == 0 or self._draw is None:
            self._draw = np.random.default_rng(self.seed)
        return int(self._draw.integers(self.low, self.high + 1))

    def _memo_key(self):
        return ("RND", self.n, self.p, self.seed)


# ---------------------------------------------------------------------------
# Technique descriptors
# ---------------------------------------------------------------------------


class Static(Technique):
    """One chunk of ceil(N/P) per PE; lowest scheduling overhead."""

    name = "STATIC"
    openmp_clause = "schedule(static)"
    pinned_per_pe = True

    def make(self, n, p, **kwargs) -> ChunkCalculator:
        """PE ``k`` owns the ``k``-th chunk of ceil(N/P)."""
        return _FixedSizeCalculator(self.name, n, p, ceil_div(max(n, 1), p))


class SelfScheduling(Technique):
    """Pure self-scheduling: chunk = 1; maximal balance, maximal overhead."""

    name = "SS"
    openmp_clause = "schedule(dynamic,1)"

    def make(self, n, p, **kwargs) -> ChunkCalculator:
        """Chunks of one iteration."""
        return _FixedSizeCalculator(self.name, n, p, 1)


class Fsc(Technique):
    """Kruskal-Weiss fixed-size chunking from (mu, sigma, h)."""

    name = "FSC"
    needs_profile = True

    def make(self, n, p, *, profile=None, chunk_overhead=None, **kwargs):
        """The fixed chunk of the module docstring's FSC formula."""
        prof = self._require_profile(profile)
        h = chunk_overhead if chunk_overhead is not None else prof.h
        if p < 2 or prof.sigma == 0.0 or n == 0:
            size = ceil_div(max(n, 1), p)
        else:
            size = (
                (math.sqrt(2.0) * n * h) / (prof.sigma * p * math.sqrt(math.log(p)))
            ) ** (2.0 / 3.0)
            if not math.isfinite(size) or size >= n:
                # vanishing sigma (or overwhelming h) drives the formula
                # to infinity: FSC degenerates to the static split, its
                # sigma -> 0 limit
                size = ceil_div(max(n, 1), p)
            size = max(1, int(math.ceil(size)))
        return _FixedSizeCalculator(self.name, n, p, size)


class MFsc(Technique):
    """Profiling-free FSC: fixed chunk matching FAC2's chunk count
    (P chunks per halving batch)."""

    name = "mFSC"

    def make(self, n, p, **kwargs):
        """Fixed chunks of ceil(N / (P * ceil(log2(N/P))))."""
        if n <= p:
            size = 1
        else:
            batches = max(1, math.ceil(math.log2(n / p)))
            size = ceil_div(n, p * batches)
        return _FixedSizeCalculator(self.name, n, p, size)


class Gss(Technique):
    """Guided self-scheduling: C_i = ceil(R_i/P)."""

    name = "GSS"
    openmp_clause = "schedule(guided,1)"
    calculator = _GssCalculator


class Tap(Technique):
    """Lucco's tapering: GSS shrunk by a variance safety margin
    estimated at runtime (an a-priori profile seeds the estimate)."""

    name = "TAP"
    adaptive = True

    def make(self, n, p, *, profile=None, **kwargs):
        """A tapering calculator; ``profile`` is its prior, if given."""
        return _TapCalculator(self.name, n, p, profile=profile)


class Tss(Technique):
    """Trapezoid self-scheduling: linear chunk decrement."""

    name = "TSS"
    openmp_extension_clause = "schedule(runtime) [LaPeSD-libGOMP tss]"
    calculator = _TssCalculator


class Tfss(Technique):
    """Trapezoid factoring: batches of P equal chunks, TSS means."""

    name = "TFSS"
    calculator = _TfssCalculator


class Fac(Technique):
    """Probabilistic factoring (Hummel et al.) from (mu, sigma)."""

    name = "FAC"
    needs_profile = True

    def make(self, n, p, *, profile=None, **kwargs):
        """A FAC recurrence from the required ``profile``."""
        return _FacCalculator(self.name, n, p, self._require_profile(profile))


class Fac2(Technique):
    """Practical factoring: each batch schedules half the remainder."""

    name = "FAC2"
    openmp_extension_clause = "schedule(runtime) [LaPeSD-libGOMP fac2]"
    calculator = _Fac2Calculator


class Fiss(Technique):
    """Fixed-increase self-scheduling: B stages of P chunks, sizes
    growing from N/((2+B)P) by a fixed increment."""

    name = "FISS"

    def __init__(self, stages: Optional[int] = None):
        self.stages = stages

    def make(self, n, p, *, stages=None, **kwargs):
        """A FISS sequence of ``stages`` stages (default: the instance's)."""
        return _FissCalculator(
            self.name, n, p, stages if stages is not None else self.stages
        )


class Viss(Technique):
    """Variable-increase self-scheduling: FISS whose stage increment
    halves every stage (C_j = C_{j-1} + C_0/2^j)."""

    name = "VISS"

    def __init__(self, stages: Optional[int] = None):
        self.stages = stages

    def make(self, n, p, *, stages=None, **kwargs):
        """A VISS sequence of ``stages`` stages (default: the instance's)."""
        return _VissCalculator(
            self.name, n, p, stages if stages is not None else self.stages
        )


class Wf(Technique):
    """Weighted factoring: FAC2 chunks scaled by fixed PE weights."""

    name = "WF"
    openmp_extension_clause = "schedule(runtime) [LaPeSD-libGOMP wf]"
    pe_dependent = True
    needs_weights = True

    def make(self, n, p, *, weights=None, **kwargs):
        """A weighted calculator (equal weights when none are given)."""
        return _WeightedCalculator(self.name, n, p, self._require_weights(weights, p))


class Awf(Technique):
    """Adaptive weighted factoring: WF whose weights are refreshed
    between outer time steps (use calculator.weights assignment or
    record() feedback via AWF-B/C/D/E for intra-loop adaptation)."""

    name = "AWF"
    pe_dependent = True

    def make(self, n, p, *, weights=None, **kwargs):
        """A weighted calculator whose weights the caller refreshes."""
        return _WeightedCalculator(self.name, n, p, self._require_weights(weights, p))


def _make_awf_variant(variant: str) -> type:
    class _AwfVariant(Technique):
        name = f"AWF-{variant}"
        pe_dependent = True
        adaptive = True
        description = {
            "B": "AWF adapting weights at batch boundaries (compute time).",
            "C": "AWF adapting weights at every chunk (compute time).",
            "D": "AWF-B including scheduling overhead in the timings.",
            "E": "AWF-C including scheduling overhead in the timings.",
        }[variant]

        def make(self, n, p, **kwargs):
            return _AwfRuntimeCalculator(self.name, n, p, variant)

    _AwfVariant.__name__ = f"Awf{variant}"
    return _AwfVariant


AwfB = _make_awf_variant("B")
AwfC = _make_awf_variant("C")
AwfD = _make_awf_variant("D")
AwfE = _make_awf_variant("E")


class Af(Technique):
    """Adaptive factoring: FAC with per-PE (mu, sigma) estimated online."""

    name = "AF"
    pe_dependent = True
    adaptive = True
    calculator = _AfCalculator


class Rnd(Technique):
    """Random chunk in [N/(100P), N/(2P)]; the sequence is a pure
    function of (N, P, seed), so RND is deterministic given the spec."""

    name = "RND"
    openmp_extension_clause = "schedule(runtime) [LaPeSD-libGOMP random]"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def make(self, n, p, *, seed=None, **kwargs):
        """An RND sequence drawn from ``seed`` (default: the instance's)."""
        # the sequence derives from the spec alone, so every rank — and
        # the dCC flattener — computes the identical schedule
        return _RndCalculator(
            self.name, n, p, self.seed if seed is None else seed
        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

from repro.core.adaptive import Adapt  # noqa: E402  (registry import)

TECHNIQUES: Dict[str, Technique] = {
    t.name: t
    for t in (
        Static(),
        SelfScheduling(),
        Fsc(),
        MFsc(),
        Gss(),
        Tap(),
        Tss(),
        Tfss(),
        Fac(),
        Fac2(),
        Fiss(),
        Viss(),
        Wf(),
        Awf(),
        AwfB(),
        AwfC(),
        AwfD(),
        AwfE(),
        Af(),
        Rnd(),
        Adapt(),
    )
}

#: The five techniques evaluated in the paper, in presentation order.
PAPER_TECHNIQUES = ("STATIC", "SS", "GSS", "TSS", "FAC2")

#: Intra-node techniques available through the *Intel* OpenMP runtime
#: (paper Table 1 / Section 5) — limits the MPI+OpenMP series in Figs 4-7.
INTEL_OPENMP_SUPPORTED = ("STATIC", "SS", "GSS")


def get_technique(name: str) -> Technique:
    """Look up a technique by (case-insensitive) name.

    ``ADAPT[...]`` spellings (e.g. ``"ADAPT[ss,fac2,tss]"``) construct
    a configured :class:`~repro.core.adaptive.Adapt` ladder instead of
    hitting the registry — this is what makes custom ladders usable in
    every stack-string surface (``HierarchicalSpec.parse``, the CLI's
    ``--techniques``, GridRunner sweeps).
    """
    stripped = name.strip()
    key = stripped.upper()
    if key.startswith("ADAPT[") and key.endswith("]"):
        return Adapt.parse(stripped)
    if key == "MFSC":
        key = "mFSC"
    technique = TECHNIQUES.get(key)
    if technique is None:
        known = ", ".join(sorted(TECHNIQUES))
        raise TechniqueError(f"unknown DLS technique {name!r}; known: {known}")
    return technique


def list_techniques() -> List[Dict[str, object]]:
    """Metadata rows (name, clause, flags) — regenerates paper Table 1."""
    rows = []
    for name in sorted(TECHNIQUES):
        t = TECHNIQUES[name]
        rows.append(
            {
                "name": t.name,
                "openmp_clause": t.openmp_clause,
                "openmp_extension_clause": t.openmp_extension_clause,
                "adaptive": t.adaptive,
                "pe_dependent": t.pe_dependent,
                "needs_profile": t.needs_profile,
                "needs_weights": t.needs_weights,
                "description": t.description,
            }
        )
    return rows
