"""Technique and ChunkCalculator abstractions.

The *distributed chunk-calculation* approach (Eleliemy & Ciorba, PDP
2019 [15]) eliminates the master: each worker atomically increments the
*latest scheduling step* in an RMA window and computes its own chunk
from that step.  That works because for non-adaptive DLS techniques the
serial chunk sequence ``C_0, C_1, ...`` is a pure function of ``(N, P,
technique parameters)`` — every rank can derive the same sequence
locally and cheaply.

This module provides:

* :class:`Technique` — stateless descriptor + factory (one instance per
  named technique, held in the registry).
* :class:`ChunkCalculator` — a per-loop-execution object produced by
  :meth:`Technique.make`.  Non-adaptive calculators memoise the serial
  sequence and expose ``deterministic = True`` so execution models can
  use the step-counter-only protocol; adaptive calculators
  (``deterministic = False``) additionally consult runtime feedback
  recorded through :meth:`ChunkCalculator.record`.

Conventions: iteration times, overheads and feedback (``compute_time``,
``overhead_time``, ``wait_time``, ``chunk_overhead``) are seconds.  A
``pe`` is the index of a child unit at the calculator's level: a node
index at the inter-node level of a hierarchical model, the rank itself
in the flat baselines, a core, socket or NUMA position below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class TechniqueError(ValueError):
    """Bad technique parameters (missing profile, weights, ...)."""


@dataclass(frozen=True)
class IterationProfile:
    """Prior knowledge about iteration execution times.

    FAC, TAP and FSC assume the mean ``mu`` and standard deviation
    ``sigma`` of iteration times are known a priori (the paper, Sec. 2).
    Workloads provide this via :meth:`repro.workloads.base.Workload.profile`.
    """

    mu: float
    sigma: float
    #: per-scheduling-operation overhead estimate ``h`` (FSC needs it).
    h: float = 1.0e-6

    def __post_init__(self) -> None:
        if self.mu <= 0 or self.sigma < 0 or self.h <= 0:
            raise TechniqueError(
                f"invalid profile mu={self.mu}, sigma={self.sigma}, h={self.h}"
            )

    @property
    def cov(self) -> float:
        """Coefficient of variation sigma/mu."""
        return self.sigma / self.mu


#: global memo of materialised serial sequences: the same
#: ``(technique, n, p, parameters)`` tuple recurs for every cell of a
#: figure sweep (every rank of every run derives the identical schedule),
#: so the recurrence is unrolled once per distinct key, process-wide.
#: Entries are ``(sizes, prefix, sizes list, prefix list)``: the arrays
#: serve vector queries, their plain-Python twins the per-chunk scalar
#: reads of ``size_at`` / ``start_at``.
_SEQUENCE_CACHE: Dict[tuple, Tuple[np.ndarray, np.ndarray, List[int], List[int]]] = {}
_SEQUENCE_CACHE_MAX = 512


def clear_sequence_cache() -> None:
    """Drop all memoised chunk sequences (tests / memory control)."""
    _SEQUENCE_CACHE.clear()


class ChunkCalculator:
    """Chunk-size oracle for one execution of one scheduling level.

    Subclasses implement :meth:`_next_size`, the remaining-based
    recurrence ``C_i = f(R_i, i)``.  For deterministic calculators the
    base class materialises the *entire* serial sequence as a NumPy
    array together with its prefix sums on first use, so ``size_at`` /
    ``start_at`` / ``total_steps`` are O(1) array reads and
    :meth:`step_of` is a single ``searchsorted`` — this mirrors how the
    distributed chunk-calculation approach lets every rank evaluate the
    schedule locally.  Sequences are memoised process-wide per
    :meth:`_memo_key`, so repeated runs over the same ``(technique, n,
    p, profile)`` (every cell of a figure sweep) pay the recurrence
    exactly once.

    Attributes
    ----------
    deterministic:
        True when chunk sizes are a pure function of the scheduling
        step.  Execution models rely on this to choose between the
        single-counter protocol (deterministic) and the
        step-plus-scheduled-count protocol (adaptive / PE-dependent).
    """

    deterministic: bool = True
    #: whether runtime feedback changes anything: True exactly when the
    #: class overrides :meth:`record` or :meth:`record_wait` (set per
    #: class by ``__init_subclass__``).  Execution models deliver the
    #: per-chunk feedback to listening calculators only.
    listens: bool = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "listens" not in cls.__dict__:
            cls.listens = (
                cls.record is not ChunkCalculator.record
                or cls.record_wait is not ChunkCalculator.record_wait
            )

    def __init__(self, name: str, n: int, p: int):
        if n < 0:
            raise TechniqueError(f"negative iteration count {n}")
        if p < 1:
            raise TechniqueError(f"need at least one PE, got {p}")
        self.name = name
        self.n = int(n)
        self.p = int(p)
        #: materialised serial sequence + prefix sums (deterministic
        #: only), as arrays and as plain-Python list twins
        self._sizes_arr: Optional[np.ndarray] = None
        self._prefix_arr: Optional[np.ndarray] = None
        self._sizes: Optional[List[int]] = None
        self._starts: Optional[List[int]] = None

    # -- recurrence ----------------------------------------------------
    def _next_size(self, remaining: int, step: int) -> int:
        """Chunk size when ``remaining`` iterations are unscheduled at ``step``."""
        raise NotImplementedError

    def _memo_key(self) -> Optional[tuple]:
        """Hashable identity of the serial sequence, or None.

        Subclasses whose sequence is a pure function of their
        constructor parameters return a key so materialised sequences
        are shared process-wide; the default (no sharing) is always
        safe.
        """
        return None

    def _materialize(self) -> np.ndarray:
        """Unroll the full serial sequence into arrays (once)."""
        key = self._memo_key()
        if key is not None:
            cached = _SEQUENCE_CACHE.get(key)
            if cached is not None:
                self._sizes_arr, self._prefix_arr, self._sizes, self._starts = cached
                return self._sizes_arr
        sizes: List[int] = []
        total = 0
        n = self.n
        next_size = self._next_size
        while total < n:
            size = next_size(n - total, len(sizes))
            size = max(1, min(int(size), n - total))
            sizes.append(size)
            total += size
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        prefix_arr = np.concatenate(([0], np.cumsum(sizes_arr)))
        entry = (sizes_arr, prefix_arr, sizes, prefix_arr.tolist())
        self._sizes_arr, self._prefix_arr, self._sizes, self._starts = entry
        if key is not None:
            if len(_SEQUENCE_CACHE) >= _SEQUENCE_CACHE_MAX:
                _SEQUENCE_CACHE.clear()
            _SEQUENCE_CACHE[key] = entry
        return sizes_arr

    # -- public API ------------------------------------------------------
    def size_at(self, step: int, pe: Optional[int] = None) -> int:
        """Size of the chunk at scheduling ``step`` (0 = loop exhausted).

        ``pe`` matters only for PE-dependent techniques (WF, AWF-*);
        deterministic techniques ignore it.
        """
        if step < 0:
            raise TechniqueError(f"negative scheduling step {step}")
        sizes = self._sizes
        if sizes is None:
            self._materialize()
            sizes = self._sizes
        if step < len(sizes):
            return sizes[step]
        return 0

    def start_at(self, step: int) -> int:
        """First iteration index of the chunk at ``step``.

        Only meaningful for deterministic calculators — the value is the
        prefix sum of the serial sequence, which is what a rank computes
        locally after fetch-and-incrementing the step counter.
        """
        if not self.deterministic:
            raise TechniqueError(
                f"{self.name} is adaptive/PE-dependent; start_at() is undefined"
            )
        if self._starts is None:
            self._materialize()
        if step < len(self._sizes):
            return self._starts[step]
        return self.n

    def step_of(self, iteration: int) -> int:
        """Scheduling step whose chunk covers ``iteration`` (O(log S)).

        A single ``searchsorted`` over the cached prefix sums
        (deterministic only).
        """
        if not self.deterministic:
            raise TechniqueError(
                f"{self.name} is adaptive/PE-dependent; step_of() is undefined"
            )
        if not 0 <= iteration < self.n:
            raise TechniqueError(
                f"iteration {iteration} outside loop of {self.n} iterations"
            )
        if self._prefix_arr is None:
            self._materialize()
        return int(np.searchsorted(self._prefix_arr, iteration, side="right")) - 1

    def record(
        self,
        pe: int,
        size: int,
        compute_time: float,
        overhead_time: float = 0.0,
    ) -> None:
        """Runtime feedback hook; default no-op (non-adaptive techniques)."""

    def record_wait(self, pe: int, wait_time: float) -> None:
        """Chunk-fetch wait feedback hook; default no-op.

        Execution models report how long a worker spent *obtaining* a
        chunk (lock polling, queue refill, remote atomics) separately
        from :meth:`record`'s compute time, because folding it into
        ``overhead_time`` would change the AWF-D/E weights the
        differential goldens pin.  Only the ADAPT meta-technique
        listens; for everything else this is a no-op.
        """

    def total_steps(self) -> int:
        """Number of chunks in the serial unrolling (deterministic only)."""
        if not self.deterministic:
            raise TechniqueError(f"{self.name}: total_steps undefined for adaptive")
        sizes = self._sizes_arr
        if sizes is None:
            sizes = self._materialize()
        return int(sizes.size)

    def sequence(self) -> List[int]:
        """The full serial chunk-size sequence (deterministic only)."""
        if not self.deterministic:
            raise TechniqueError(f"{self.name}: sequence undefined for adaptive")
        sizes = self._sizes_arr
        if sizes is None:
            sizes = self._materialize()
        return sizes.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, n={self.n}, p={self.p})"


class Technique:
    """Descriptor + factory for one DLS technique.

    Instances are stateless; per-execution state lives in the
    :class:`ChunkCalculator` returned by :meth:`make`.

    Attributes
    ----------
    name:
        Canonical upper-case name (``"GSS"``).
    openmp_clause:
        The OpenMP ``schedule`` clause implementing the same technique,
        or None when the (Intel) OpenMP runtime has no equivalent —
        reproduces the paper's Table 1 and drives which MPI+OpenMP
        combinations exist in Figures 4-7.
    openmp_extension_clause:
        Clause available only in the research LaPeSD-libGOMP runtime
        [31] (e.g. TSS, FAC2); None otherwise.
    adaptive:
        Uses runtime feedback (AWF-B/C/D/E, AF).
    pe_dependent:
        Chunk size depends on which PE grabs it (WF, AWF family).
    needs_profile / needs_weights:
        Requires an :class:`IterationProfile` / per-PE weights.
    """

    name: str = "?"
    openmp_clause: Optional[str] = None
    openmp_extension_clause: Optional[str] = None
    adaptive: bool = False
    pe_dependent: bool = False
    needs_profile: bool = False
    needs_weights: bool = False
    #: STATIC semantics: PE ``k`` owns chunk ``k`` outright (one
    #: scheduling round, no queue traffic) — cf. the paper's remark that
    #: STATIC at the inter-node level means a single scheduling round.
    pinned_per_pe: bool = False
    #: one-line summary for Table 1 and ``repro techniques``: a
    #: subclass's docstring, whitespace collapsed, unless it sets one
    description: str = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "description" not in cls.__dict__ and cls.__doc__:
            cls.description = " ".join(cls.__doc__.split())

    #: what :meth:`make` builds, as ``calculator(name, n, p)``, for a
    #: technique without parameters; the others override :meth:`make`
    calculator: Optional[Callable[[str, int, int], ChunkCalculator]] = None

    def make(
        self,
        n: int,
        p: int,
        *,
        weights: Optional[Sequence[float]] = None,
        profile: Optional[IterationProfile] = None,
        rng: Optional[np.random.Generator] = None,
        chunk_overhead: Optional[float] = None,
    ) -> ChunkCalculator:
        """Create a calculator for a loop of ``n`` iterations on ``p`` PEs."""
        if self.calculator is None:
            raise NotImplementedError
        return self.calculator(self.name, n, p)

    # -- shared validation helpers --------------------------------------
    def _require_profile(self, profile: Optional[IterationProfile]) -> IterationProfile:
        if profile is None:
            raise TechniqueError(f"{self.name} requires an IterationProfile (mu, sigma)")
        return profile

    def _require_weights(
        self, weights: Optional[Sequence[float]], p: int
    ) -> np.ndarray:
        if weights is None:
            # Homogeneous default: all PEs equally fast.
            return np.ones(p)
        arr = np.asarray(weights, dtype=float)
        if arr.shape != (p,):
            raise TechniqueError(
                f"{self.name}: weights must have shape ({p},), got {arr.shape}"
            )
        if np.any(arr <= 0):
            raise TechniqueError(f"{self.name}: weights must be positive")
        # Normalise so weights sum to p (w_k == 1 means nominal speed).
        return arr * (p / arr.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Technique({self.name})"


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    return -(-a // b)


def batch_index(step: int, p: int) -> int:
    """FAC-family batches consist of ``p`` equally-sized chunks."""
    return step // p


__all__ = [
    "ChunkCalculator",
    "IterationProfile",
    "Technique",
    "TechniqueError",
    "batch_index",
    "ceil_div",
    "clear_sequence_cache",
]
