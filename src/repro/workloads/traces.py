"""Persisting workload cost traces and adversarial trace generation.

Traces let expensive cost vectors (full-scale Mandelbrot/PSIA) be
computed once and reused across benchmark runs, and let users feed
*measured* per-iteration times from real applications into the
simulator — the same workflow the authors' later simulation work uses
(FLOP-count / time traces driving a simulator).

:func:`adversarial_workload` complements the smooth distributional
generators in :mod:`repro.workloads.synthetic` with *structured*
stress traces — spikes, phase-flipping ramps, blocky bimodal costs —
built to provoke the adaptive selector (ADAPT ladders) into switching
and to punish techniques whose chunk sizes commit early.  Every trace
is a pure function of ``(kind, n, seed, base, peak)`` so regression
tests can pin schedules against it, and it round-trips through
:func:`save_trace` / :func:`load_trace` like any measured trace.

Conventions: costs are nominal seconds per iteration, indexed by loop
position ``0 .. n-1``, never by rank.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.workloads.base import Workload

_FORMAT_VERSION = 1

#: recognised ``kind`` values for :func:`adversarial_workload`
ADVERSARIAL_KINDS = ("spike", "ramp", "bimodal")


def adversarial_workload(
    kind: str,
    n: int,
    *,
    seed: int = 0,
    base: float = 0.2e-3,
    peak: float = 8.0e-3,
) -> Workload:
    """Generate a structured stress trace of ``n`` iteration costs.

    * ``"spike"`` — flat baseline punctured by rare (≈2%) expensive
      spikes at seeded positions, with one spike forced into the final
      tenth of the loop so schedules with large tail chunks always
      absorb at least one late straggler.
    * ``"ramp"`` — a phase-flipping ramp: costs climb linearly from
      ``base`` to ``peak`` over the first half, then descend back.
      Decreasing ramps favour TSS-style linear tapering; the embedded
      flip penalises a selector that commits to one rule early.
    * ``"bimodal"`` — contiguous cheap/expensive blocks of seeded
      random lengths, so the runtime (mu, sigma) estimate whipsaws as
      whole blocks enter and leave the feedback window.

    The result is deterministic given the arguments (the generator
    derives everything from ``numpy.random.default_rng(seed)``).
    """
    if kind not in ADVERSARIAL_KINDS:
        raise ValueError(
            f"unknown adversarial kind {kind!r}; expected one of "
            f"{ADVERSARIAL_KINDS}"
        )
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 < base <= peak:
        raise ValueError("need 0 < base <= peak")
    rng = np.random.default_rng(seed)
    if kind == "spike":
        costs = np.full(n, base)
        n_spikes = max(1, n // 50)
        costs[rng.choice(n, size=n_spikes, replace=False)] = peak
        # force a straggler into the last tenth of the loop
        tail_start = (9 * n) // 10
        costs[int(rng.integers(tail_start, n))] = peak
    elif kind == "ramp":
        half = max(n // 2, 1)
        up = np.linspace(base, peak, half)
        down = np.linspace(peak, base, n - half) if n > half else up[:0]
        costs = np.concatenate([up, down])[:n]
        # seeded multiplicative jitter keeps the ramp from being
        # perfectly learnable from a handful of observations
        costs = costs * rng.uniform(0.9, 1.1, size=n)
    else:  # bimodal blocks
        costs = np.empty(n)
        mean_block = max(n // 16, 1)
        cursor = 0
        expensive = bool(rng.integers(0, 2))
        while cursor < n:
            length = int(rng.integers(1, 2 * mean_block + 1))
            stop = min(cursor + length, n)
            costs[cursor:stop] = peak if expensive else base
            expensive = not expensive
            cursor = stop
    costs = np.maximum(costs, 1e-12)
    return Workload(
        name=f"adversarial-{kind}-{n}",
        costs=costs,
        meta={
            "kernel": "adversarial",
            "kind": kind,
            "seed": seed,
            "base": base,
            "peak": peak,
        },
    )


def save_trace(workload: Workload, path: Union[str, Path]) -> Path:
    """Save a workload's cost vector + metadata to an ``.npz`` file."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_json = json.dumps(
        {"name": workload.name, "meta": _jsonable(workload.meta),
         "version": _FORMAT_VERSION}
    )
    np.savez_compressed(path, costs=workload.costs, meta=np.bytes_(meta_json.encode()))
    return path


def load_trace(path: Union[str, Path]) -> Workload:
    """Load a workload saved with :func:`save_trace`.

    The executor is not persisted (it is code, not data); the loaded
    workload is simulation-only.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        costs = np.asarray(data["costs"], dtype=np.float64)
        header = json.loads(bytes(data["meta"]).decode())
    if header.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported trace version in {path}")
    return Workload(name=header["name"], costs=costs, meta=header["meta"])


def _jsonable(obj):
    """Best-effort conversion of metadata to JSON-encodable values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
