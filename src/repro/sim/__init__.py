"""Discrete-event simulation engine (substrate S1).

This package provides a deterministic, generator-based discrete-event
simulator in the style of SimPy, purpose-built for modelling parallel
machines: simulated *processes* are Python generators that ``yield``
:class:`~repro.sim.primitives.Command` objects (compute delays, event
waits, resource acquisitions) to the :class:`~repro.sim.engine.Simulator`.

Design notes
------------
* **Determinism.** Ties in the event heap are broken by a monotonically
  increasing sequence number, and all randomness flows through named
  :meth:`~repro.sim.engine.Simulator.rng` streams derived from the
  simulation seed, so a run is a pure function of its inputs.
* **Time accounting.** Delays carry a *kind* (``compute`` / ``overhead`` /
  ``idle``) so that higher layers can attribute elapsed time to useful
  work, scheduling overhead, or idleness without instrumenting call
  sites twice.
* **Composability.** Processes call helper coroutines with ``yield from``;
  commands bubble up to the engine transparently.

Conventions: simulated time is in seconds; the engine knows processes,
not ranks (:mod:`repro.smpi` maps each rank to one process).
"""

from repro.sim.engine import ProcessFailure, Process, Simulator
from repro.sim.primitives import (
    Command,
    Compute,
    Delay,
    DelayKind,
    Overhead,
    SimEvent,
    Timeout,
)
from repro.sim.resources import Barrier, Lock, Semaphore, Store

__all__ = [
    "Barrier",
    "Command",
    "Compute",
    "Delay",
    "DelayKind",
    "Lock",
    "Overhead",
    "Process",
    "ProcessFailure",
    "Semaphore",
    "SimEvent",
    "Simulator",
    "Store",
    "Timeout",
]
