"""Primitive commands and events understood by the simulation engine.

Simulated processes are generators.  Everything a process can *do* is
expressed by yielding one of the :class:`Command` subclasses defined
here; the :class:`~repro.sim.engine.Simulator` interprets the command
and resumes the generator when it completes.

Conventions: every duration is simulated seconds.  Commands carry no
MPI rank or node index; the process that yields one is the one it acts
on.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional


class DelayKind(enum.Enum):
    """Classification of simulated time spent inside a :class:`Delay`.

    The engine accumulates per-process totals for each kind, which the
    metrics layer later turns into useful-work / overhead / idle
    breakdowns (cf. the paper's discussion of idle time under the
    implicit OpenMP barrier, Fig. 2).
    """

    #: Useful work: executing loop iterations.
    COMPUTE = "compute"
    #: Scheduling/communication overhead: chunk calculation, lock
    #: polling, window synchronisation, message latency, ...
    OVERHEAD = "overhead"
    #: Deliberate idling (rare; most idle time arises from waiting on
    #: events and is accounted implicitly).
    IDLE = "idle"


class Command:
    """Marker base class for everything a process may ``yield``."""

    __slots__ = ()


class Delay(Command):
    """Advance the yielding process's local clock by ``duration``.

    Parameters
    ----------
    duration:
        Simulated seconds; must be non-negative (NaN is rejected).
    kind:
        How the elapsed time should be accounted for this process.
    """

    __slots__ = ("duration", "kind")

    def __init__(self, duration: float, kind: DelayKind = DelayKind.OVERHEAD):
        if not duration >= 0:  # also catches NaN, which compares False
            kind_of = "negative" if duration < 0 else "NaN"
            raise ValueError(f"{kind_of} delay: {duration!r}")
        self.duration = float(duration)
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.duration:.3e}, {self.kind.value})"


# ---------------------------------------------------------------------------
# interned Delay factories
#
# Delay objects are immutable in practice (the engine only reads them),
# so the factory functions intern them per (kind, duration).  Simulated
# runs yield the same handful of modelled costs (lock attempts, window
# accesses, chunk-calculation overheads, per-iteration compute grains)
# millions of times; returning a cached object skips an allocation and
# ``__init__`` on the engine's hottest path.  Caches are bounded so
# jittered one-off durations cannot grow them without limit — the
# recurring constants are seen (and cached) first.
# ---------------------------------------------------------------------------

_INTERN_LIMIT = 4096
_compute_cache: dict = {}
_overhead_cache: dict = {}
_timeout_cache: dict = {}


def clear_delay_caches() -> None:
    """Drop all interned Delay objects (tests / long-process hygiene)."""
    _compute_cache.clear()
    _overhead_cache.clear()
    _timeout_cache.clear()


def Compute(duration: float) -> Delay:
    """A delay accounted as useful computation (loop-iteration work)."""
    cached = _compute_cache.get(duration)
    if cached is not None:
        return cached
    delay = Delay(duration, DelayKind.COMPUTE)
    if len(_compute_cache) < _INTERN_LIMIT:
        _compute_cache[duration] = delay
    return delay


def Overhead(duration: float) -> Delay:
    """A delay accounted as scheduling/communication overhead."""
    cached = _overhead_cache.get(duration)
    if cached is not None:
        return cached
    delay = Delay(duration, DelayKind.OVERHEAD)
    if len(_overhead_cache) < _INTERN_LIMIT:
        _overhead_cache[duration] = delay
    return delay


def Timeout(duration: float) -> Delay:
    """A delay accounted as idle time (pure waiting)."""
    cached = _timeout_cache.get(duration)
    if cached is not None:
        return cached
    delay = Delay(duration, DelayKind.IDLE)
    if len(_timeout_cache) < _INTERN_LIMIT:
        _timeout_cache[duration] = delay
    return delay


def ComputeOnce(duration: float) -> Delay:
    """A compute delay that bypasses the intern cache.

    For effectively-unique durations — noise-jittered chunk execution
    times — where caching would only fill the bounded intern tables
    with keys that never recur, crowding out the genuinely repeating
    constants.
    """
    return Delay(duration, DelayKind.COMPUTE)


def OverheadOnce(duration: float) -> Delay:
    """An overhead delay that bypasses the intern cache (see ComputeOnce)."""
    return Delay(duration, DelayKind.OVERHEAD)


class SimEvent(Command):
    """A one-shot event that processes can wait on.

    A process waits by yielding the event itself.  When some other
    process (or engine callback) calls :meth:`trigger`, every waiter is
    resumed at the trigger time and receives ``value`` as the result of
    its ``yield`` expression.  Triggering an already-triggered event is
    an error unless ``ignore_retrigger`` was requested, which keeps
    broadcast-style users honest.
    """

    __slots__ = ("_sim", "triggered", "value", "_waiters", "name")

    def __init__(self, sim: "Any" = None, name: str = ""):
        self._sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Any] = []  # Process objects
        self.name = name

    def bind(self, sim: Any) -> "SimEvent":
        """Attach the event to a simulator (done lazily by the engine)."""
        self._sim = sim
        return self

    def add_waiter(self, process: Any) -> None:
        """Park ``process`` until :meth:`trigger` (called by the engine)."""
        self._waiters.append(process)

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all current waiters at the current time."""
        if self.triggered:
            raise RuntimeError(f"event {self.name or id(self)} already triggered")
        if self._sim is None:
            raise RuntimeError("event is not bound to a simulator")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._sim._schedule_resume(process, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "set" if self.triggered else "pending"
        return f"SimEvent({self.name!r}, {state}, waiters={len(self._waiters)})"


class Spawn(Command):
    """Ask the engine to start a child process; resumes with the Process."""

    __slots__ = ("factory", "name")

    def __init__(self, factory: Callable[[], Any], name: Optional[str] = None):
        self.factory = factory
        self.name = name


class Halt(Command):
    """Stop the whole simulation immediately (used by watchdogs/tests)."""

    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason
