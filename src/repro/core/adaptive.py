"""The ADAPT meta-technique: runtime selection of the chunk calculator.

"OpenMP Loop Scheduling Revisited" (Ciorba, Iwainsky & Buder, 2018)
makes the case that *no single* DLS technique wins across workloads and
machines — the right technique depends on the ratio of scheduling
overhead to load imbalance, which is only observable at runtime.  ADAPT
operationalises that argument per scheduling tier: every queue that
carries an ADAPT level watches two live signals,

* **chunk-fetch wait** — how long workers spend obtaining chunks (lock
  polling, refills, remote atomics), reported by the execution models
  through :meth:`~repro.core.technique_base.ChunkCalculator.record_wait`;
* **iteration-time CoV** — the coefficient of variation of observed
  per-iteration compute times, reported through ``record``,

and walks a fineness ladder (default ``SS -> FAC2 -> GSS``) in
response:

* it *starts at the first candidate* (by convention the finest — best
  load balance);
* when fetch wait dominates (``wait / (wait + compute)`` above the
  coarsen threshold over an observation window) it **coarsens** one
  rung — bigger chunks amortise the contended queue;
* when iteration times are highly variable (CoV above threshold) *and*
  fetching is cheap, it **refines** one rung — imbalance is the
  bigger enemy and the queue can afford the traffic.

The ladder is **configurable**: any ordered subset of the candidate
rules (``SS``, ``FAC2``, ``GSS``, ``TSS``) forms a valid ladder, spelt
``ADAPT[ss,fac2,tss]`` in a stack string (see :meth:`Adapt.parse`) or
passed as ``Adapt(candidates=(...))``.  The given order *is* the
ladder: index 0 is the starting rung, coarsening moves right.  Two
hysteresis knobs guard against thrash on noisy workloads:

* ``min_dwell`` — completed observation windows the selector must
  spend on a rung before it may switch again (0 = legacy behaviour:
  every window boundary may switch);
* ``improve_threshold`` — additive margin the triggering signal must
  clear beyond its threshold before a switch fires (0.0 = legacy
  exact thresholds).

The selector only ever picks from its ``candidates`` tuple, so an
installation that lacks a rule can simply omit it (the property suite
pins this).  Chunk sizes come from remaining-based closed forms of the
candidate rules — the ``TSS`` rule re-anchors its trapezoid on the
remainder at mode entry — so coverage/positivity hold by the same
argument as for the fixed techniques.

Conventions: fetch waits and iteration times are simulated seconds;
``pe`` arguments number the PEs of one scheduling tier, not global
ranks.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.technique_base import (
    ChunkCalculator,
    Technique,
    TechniqueError,
    ceil_div,
)

#: the legacy default ladder, finest first (SS -> FAC2 -> GSS)
_LADDER: Tuple[str, ...] = ("SS", "FAC2", "GSS")

#: stateless candidate rules — chunk size from (remaining, p)
_RULES = {
    "SS": lambda remaining, p: 1,
    "FAC2": lambda remaining, p: ceil_div(remaining, 2 * p),
    "GSS": lambda remaining, p: ceil_div(remaining, p),
}

#: every rule a ladder may carry (the stateless ones plus TSS)
RULE_NAMES: Tuple[str, ...] = ("SS", "FAC2", "GSS", "TSS")


class _TssRule:
    """The stateful TSS rung: a trapezoid re-anchored on mode entry.

    Unlike the stateless rules, TSS's linear decrement needs a fixed
    starting point; the selector anchors it on the iterations remaining
    when the rung is entered, and discards it on the next switch.
    """

    def __init__(self, remaining: int, p: int):
        self.first = max(1, ceil_div(remaining, 2 * p))
        self.last = 1
        steps = (
            max(1, ceil_div(2 * remaining, self.first + self.last))
            if remaining
            else 0
        )
        self.delta = (
            (self.first - self.last) / (steps - 1) if steps > 1 else 0.0
        )
        self.taken = 0

    def next_size(self) -> int:
        size = max(self.last, int(round(self.first - self.taken * self.delta)))
        self.taken += 1
        return size


class _AdaptiveCalculator(ChunkCalculator):
    """Per-execution ADAPT state: the selector plus window accumulators.

    ``deterministic = False``: chunk sizes depend on runtime feedback,
    so execution models use the scheduled-count protocol (exactly as
    for AWF-*/AF).
    """

    deterministic = False
    adaptive = True

    def __init__(
        self,
        name: str,
        n: int,
        p: int,
        candidates: Sequence[str] = _LADDER,
        window: Optional[int] = None,
        wait_coarsen: float = 0.2,
        wait_refine: float = 0.05,
        cov_refine: float = 0.5,
        min_dwell: int = 0,
        improve_threshold: float = 0.0,
    ):
        super().__init__(name, n, p)
        # the *given* order is the ladder (finest first by convention);
        # duplicates collapse to their first occurrence
        ladder = tuple(dict.fromkeys(candidates))
        unknown = set(ladder) - set(RULE_NAMES)
        if unknown:
            raise TechniqueError(
                f"{name}: unknown candidate rules {sorted(unknown)}; "
                f"available: {list(RULE_NAMES)}"
            )
        if not ladder:
            raise TechniqueError(f"{name}: needs at least one candidate rule")
        if min_dwell < 0:
            raise TechniqueError(f"{name}: min_dwell must be >= 0, got {min_dwell}")
        if improve_threshold < 0:
            raise TechniqueError(
                f"{name}: improve_threshold must be >= 0, got {improve_threshold}"
            )
        self.candidates = ladder
        #: adaptation window: observations before a switch decision
        self.window = window if window is not None else max(4, p)
        self.wait_coarsen = wait_coarsen
        self.wait_refine = wait_refine
        self.cov_refine = cov_refine
        self.min_dwell = int(min_dwell)
        self.improve_threshold = float(improve_threshold)
        self._mode_index = 0  # start at the first (finest) candidate
        #: every mode the selector has been in, in order (tests/reports)
        self.mode_history: List[str] = [self.candidates[0]]
        self.switch_count = 0
        self._scheduled = 0
        self._windows_in_mode = 0  # completed windows since the last switch
        self._tss_state: Optional[_TssRule] = None
        # observation-window accumulators
        self._win_wait = 0.0
        self._win_compute = 0.0
        self._win_obs = 0
        self._win_iter_sum = 0.0
        self._win_iter_sq = 0.0
        self._win_iter_n = 0

    # -- selector state -------------------------------------------------
    @property
    def mode(self) -> str:
        """The currently selected candidate rule."""
        return self.candidates[self._mode_index]

    def _switch(self, new_index: int) -> None:
        self._mode_index = new_index
        self.mode_history.append(self.mode)
        self.switch_count += 1
        self._windows_in_mode = 0
        self._tss_state = None  # a TSS rung re-anchors on entry

    def _maybe_adapt(self) -> None:
        if self._win_obs < self.window:
            return
        self._windows_in_mode += 1
        busy = self._win_wait + self._win_compute
        wait_fraction = self._win_wait / busy if busy > 0 else 0.0
        cov = 0.0
        if self._win_iter_n >= 2:
            mean = self._win_iter_sum / self._win_iter_n
            if mean > 0:
                var = max(
                    0.0, self._win_iter_sq / self._win_iter_n - mean * mean
                )
                cov = math.sqrt(var) / mean
        may_switch = self._windows_in_mode > self.min_dwell
        if (
            may_switch
            and wait_fraction > self.wait_coarsen + self.improve_threshold
            and self._mode_index + 1 < len(self.candidates)
        ):
            self._switch(self._mode_index + 1)
        elif (
            may_switch
            and cov > self.cov_refine + self.improve_threshold
            and wait_fraction < self.wait_refine
            and self._mode_index > 0
        ):
            self._switch(self._mode_index - 1)
        self._win_wait = 0.0
        self._win_compute = 0.0
        self._win_obs = 0
        self._win_iter_sum = 0.0
        self._win_iter_sq = 0.0
        self._win_iter_n = 0

    # -- feedback hooks -------------------------------------------------
    def record(
        self, pe: int, size: int, compute_time: float, overhead_time: float = 0.0
    ) -> None:
        if size <= 0:
            return
        per_iter = compute_time / size
        self._win_compute += compute_time + overhead_time
        self._win_iter_sum += per_iter
        self._win_iter_sq += per_iter * per_iter
        self._win_iter_n += 1
        self._win_obs += 1
        self._maybe_adapt()

    def record_wait(self, pe: int, wait_time: float) -> None:
        self._win_wait += wait_time

    # -- chunk dispensing ------------------------------------------------
    def size_at(self, step: int, pe: Optional[int] = None) -> int:
        remaining = self.n - self._scheduled
        if remaining <= 0:
            return 0
        if self.mode == "TSS":
            if self._tss_state is None:
                self._tss_state = _TssRule(remaining, self.p)
            size = self._tss_state.next_size()
        else:
            size = _RULES[self.mode](remaining, self.p)
        size = max(1, min(int(size), remaining))
        self._scheduled += size
        return size

    @property
    def scheduled(self) -> int:
        return self._scheduled


class Adapt(Technique):
    """The ADAPT descriptor.

    The registry holds a default instance (full SS/FAC2/GSS ladder,
    default thresholds); a *configured* instance can be placed directly
    in a stack because :class:`~repro.core.hierarchy.LevelSpec` accepts
    Technique objects::

        HierarchicalSpec.of("GSS", Adapt(candidates=("FAC2", "GSS")))

    or spelt inline in any stack string (see :meth:`parse`)::

        HierarchicalSpec.parse("GSS+ADAPT[ss,fac2,tss]")
    """

    name = "ADAPT"
    adaptive = True
    description = (
        "Runtime-adaptive selector: starts at the finest candidate of "
        "its ladder (default SS->FAC2->GSS; any ordered subset of "
        "SS/FAC2/GSS/TSS via ADAPT[...]) and coarsens when chunk-fetch "
        "wait dominates, refining back when iteration-time CoV is high "
        "and fetching is cheap."
    )

    def __init__(
        self,
        candidates: Sequence[str] = _LADDER,
        window: Optional[int] = None,
        wait_coarsen: float = 0.2,
        wait_refine: float = 0.05,
        cov_refine: float = 0.5,
        min_dwell: int = 0,
        improve_threshold: float = 0.0,
    ):
        # fail at construction, not at the first queue refill
        _AdaptiveCalculator(
            self.name, 0, 1, candidates=candidates, window=window,
            wait_coarsen=wait_coarsen, wait_refine=wait_refine,
            cov_refine=cov_refine, min_dwell=min_dwell,
            improve_threshold=improve_threshold,
        )
        self.candidates = tuple(dict.fromkeys(candidates))
        self.window = window
        self.wait_coarsen = wait_coarsen
        self.wait_refine = wait_refine
        self.cov_refine = cov_refine
        self.min_dwell = int(min_dwell)
        self.improve_threshold = float(improve_threshold)
        if self._is_configured():
            self.name = self.spelling()  # instance attr shadows the class attr

    def _is_configured(self) -> bool:
        return (
            self.candidates != _LADDER
            or self.min_dwell != 0
            or self.improve_threshold != 0.0
            or self.window is not None
        )

    def spelling(self) -> str:
        """Canonical ``ADAPT[...]`` spelling of this configuration.

        Rule names are lower-case; non-default knobs append as
        ``key=value`` entries.  :meth:`parse` inverts this exactly, so
        the spelling round-trips through stack labels, cell-cache keys
        and the CLI.
        """
        entries = [rule.lower() for rule in self.candidates]
        if self.window is not None:
            entries.append(f"window={self.window}")
        if self.min_dwell:
            entries.append(f"dwell={self.min_dwell}")
        if self.improve_threshold:
            entries.append(f"improve={self.improve_threshold:g}")
        return "ADAPT[" + ",".join(entries) + "]"

    @classmethod
    def parse(cls, text: str) -> "Adapt":
        """Parse an ``ADAPT[...]`` ladder spelling.

        The bracket holds a comma-separated candidate ladder (ordered
        finest -> coarsest, case-insensitive: any of ``ss``, ``fac2``,
        ``gss``, ``tss``) plus optional ``key=value`` knobs:
        ``window=<int>`` (observation window), ``dwell=<int>``
        (``min_dwell``) and ``improve=<float>``
        (``improve_threshold``)::

            ADAPT[ss,fac2,tss]
            ADAPT[ss,fac2,gss,tss,dwell=2,improve=0.05]
        """
        stripped = text.strip()
        upper = stripped.upper()
        if not (upper.startswith("ADAPT[") and upper.endswith("]")):
            raise TechniqueError(f"not an ADAPT ladder spelling: {text!r}")
        body = stripped[len("ADAPT["):-1]
        rules: List[str] = []
        knobs = {}
        for entry in body.split(","):
            entry = entry.strip()
            if not entry:
                raise TechniqueError(f"empty entry in ADAPT ladder {text!r}")
            if "=" in entry:
                key, _, value = entry.partition("=")
                key = key.strip().lower()
                value = value.strip()
                try:
                    if key == "window":
                        knobs["window"] = int(value)
                    elif key == "dwell":
                        knobs["min_dwell"] = int(value)
                    elif key == "improve":
                        knobs["improve_threshold"] = float(value)
                    else:
                        raise TechniqueError(
                            f"unknown ADAPT knob {key!r} in {text!r}; "
                            f"knobs: window, dwell, improve"
                        )
                except ValueError as exc:
                    raise TechniqueError(
                        f"bad value for ADAPT knob {key!r} in {text!r}: {exc}"
                    ) from None
            else:
                rules.append(entry.upper())
        if not rules:
            raise TechniqueError(
                f"ADAPT ladder {text!r} names no candidate rules"
            )
        return cls(candidates=tuple(rules), **knobs)

    def make(self, n, p, **kwargs) -> ChunkCalculator:
        """A selector over this ladder, starting at its first rung."""
        return _AdaptiveCalculator(
            self.name,
            n,
            p,
            candidates=self.candidates,
            window=self.window,
            wait_coarsen=self.wait_coarsen,
            wait_refine=self.wait_refine,
            cov_refine=self.cov_refine,
            min_dwell=self.min_dwell,
            improve_threshold=self.improve_threshold,
        )


__all__ = ["Adapt", "RULE_NAMES"]
