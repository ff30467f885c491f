"""Synchronisation resources built on the engine's event primitive.

All resources are FIFO and deterministic.  They are deliberately
minimal: higher-level constructs (MPI window locks with polling, OpenMP
barriers with modelled costs) are built *on top of* these in
:mod:`repro.smpi` and :mod:`repro.somp`, keeping the timing models out
of the core engine.

Conventions: the resources charge no time of their own — a blocked
caller waits in simulated seconds until another process releases it,
at the releaser's time.  Owners are free-form tags; the MPI layers use
``"rank<r>"`` with ``r`` the MPI rank (:attr:`repro.smpi.world.RankCtx.owner`).
Waiters are indexed by arrival order only, never by rank or node index.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from repro.sim.engine import Simulator
from repro.sim.primitives import Command, SimEvent


class Lock:
    """FIFO mutual-exclusion lock.

    Usage inside a process::

        yield from lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    __slots__ = (
        "sim", "name", "_gate_name", "_locked", "_waiters", "owner",
        "n_acquisitions",
    )

    def __init__(self, sim: Simulator, name: str = "lock"):
        self.sim = sim
        self.name = name
        self._gate_name = f"{name}.gate"
        self._locked = False
        self._waiters: Deque[SimEvent] = deque()
        self.owner: Optional[str] = None
        self.n_acquisitions = 0

    @property
    def locked(self) -> bool:
        """Whether some owner holds the lock."""
        return self._locked

    def try_acquire(self, owner: str = "?") -> bool:
        """Non-blocking acquire; returns True on success."""
        if self._locked:
            return False
        self._locked = True
        self.owner = owner
        self.n_acquisitions += 1
        return True

    def acquire(self, owner: str = "?") -> Generator[Command, Any, None]:
        """Blocking acquire (generator — use with ``yield from``)."""
        if not self._locked:
            self._locked = True
            self.owner = owner
            self.n_acquisitions += 1
            return
        gate = self.sim.event(self._gate_name)
        self._waiters.append(gate)
        yield gate
        # Ownership was transferred to us by release().
        self.owner = owner
        self.n_acquisitions += 1

    def release(self) -> None:
        """Release the lock, handing it to the oldest live waiter.

        Raises ``RuntimeError`` if the lock is not held.
        """
        if not self._locked:
            raise RuntimeError(f"release of unlocked {self.name}")
        while self._waiters:
            # Hand off directly: the lock stays logically held, the next
            # waiter resumes at the current time already owning it.  A
            # waiter that crash-stopped while queued can never resume to
            # claim ownership, so its gate is skipped — otherwise the
            # lock would be stranded "held by nobody" forever.
            gate = self._waiters.popleft()
            for process in gate._waiters:
                if process.alive:
                    self.owner = None
                    gate.trigger()
                    return
        self._locked = False
        self.owner = None

    def force_release(self) -> None:
        """Break a (dead owner's) lease: drop the lock without hand-off.

        Used by failure-aware layers after they *detect* that the
        current owner crashed while holding the lock.  Unlike
        :meth:`release` it does not wake blocked waiters — the polling
        protocols that use ``force_release`` retry via
        :meth:`try_acquire`, never via the waiter queue — and it is a
        no-op on an unlocked lock (two pollers may race to break the
        same lease).
        """
        self._locked = False
        self.owner = None


class Semaphore:
    """Counting semaphore with FIFO wakeups."""

    __slots__ = ("sim", "name", "_count", "_waiters")

    def __init__(self, sim: Simulator, value: int, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        self._count = value
        self._waiters: Deque[SimEvent] = deque()

    @property
    def value(self) -> int:
        """Units available without blocking."""
        return self._count

    def acquire(self) -> Generator[Command, Any, None]:
        """Take one unit, blocking FIFO while none is available
        (generator — use with ``yield from``)."""
        if self._count > 0:
            self._count -= 1
            return
        gate = self.sim.event(f"{self.name}.gate")
        self._waiters.append(gate)
        yield gate

    def release(self) -> None:
        """Return one unit: wake the oldest waiter or bank the unit."""
        if self._waiters:
            self._waiters.popleft().trigger()
        else:
            self._count += 1


class Barrier:
    """Reusable n-party barrier.

    The n-th arrival releases everyone; the barrier then resets for the
    next phase.  Arrival order is preserved in :attr:`generations` for
    inspection by tests.
    """

    __slots__ = ("sim", "name", "parties", "_gate", "_arrived", "generations")

    def __init__(self, sim: Simulator, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError("barrier needs >= 1 parties")
        self.sim = sim
        self.name = name
        self.parties = parties
        self._gate = sim.event(f"{name}.gen0")
        self._arrived = 0
        #: completion times of each generation (for tests/metrics)
        self.generations: List[float] = []

    def wait(self) -> Generator[Command, Any, None]:
        """Arrive and block until all ``parties`` have arrived
        (generator — use with ``yield from``); the last arrival
        releases the generation without blocking."""
        self._arrived += 1
        if self._arrived == self.parties:
            gate = self._gate
            self.generations.append(self.sim.now)
            self._arrived = 0
            self._gate = self.sim.event(f"{self.name}.gen{len(self.generations)}")
            gate.trigger()
            return
        gate = self._gate
        yield gate


class Store:
    """Unbounded FIFO channel carrying arbitrary items.

    ``put`` never blocks; ``get`` blocks until an item is available.
    Items are delivered in insertion order, one per getter, FIFO on the
    getter side too — which is exactly the matching discipline the
    simulated MPI point-to-point layer needs.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deliver ``item`` to the oldest blocked getter, or queue it."""
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Generator[Command, Any, Any]:
        """Take the oldest item, blocking until one is put
        (generator — use with ``yield from``); returns the item."""
        if self._items:
            return self._items.popleft()
        gate = self.sim.event(f"{self.name}.get")
        self._getters.append(gate)
        item = yield gate
        return item

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (test helper; does not consume)."""
        return list(self._items)
