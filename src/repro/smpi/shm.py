"""MPI-3 shared-memory window with passive-target lock polling.

Implements the *local work queue* substrate: a per-node window created
with ``MPI_Win_allocate_shared``, accessed by the node's ranks under
``MPI_Win_lock(MPI_LOCK_EXCLUSIVE)`` / ``MPI_Win_unlock`` plus
``MPI_Win_sync`` memory barriers — exactly the primitives the paper's
Section 3 describes.

The decisive behaviour (paper Sections 5-6): ``MPI_Win_lock`` is
implemented with **lock polling** (Zhao, Balaji & Gropp [38]).  A rank
that fails to acquire re-issues a lock-attempt message only after a
polling interval, so under contention each hand-off costs a large
fraction of that interval, and the number of lock-attempt messages
grows with the number of simultaneous requesters.  This is why fine
grained intra-node techniques (``X+SS``) perform poorly under the
MPI+MPI approach while coarse ones are unaffected.

The window tracks contention statistics (attempts, acquisitions, poll
wait time) that the benchmarks report and the ablation sweeps.

Conventions: every cost, wait and penalty is in simulated seconds.
Each rank's delays on a window are priced once from its locality tier
to the window's home and reused until :meth:`SharedWindow.fail_over`
re-homes the window; lock-poll waits come from the simulator's buffered
``shm-lockpoll.node<key>`` stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.cluster.topology import MAX_DEPTH
from repro.sim.primitives import Delay, Overhead, OverheadOnce
from repro.sim.resources import Lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.world import MpiWorld, RankCtx

#: one rank's priced costs on one window: (lock-attempt delay, unlock
#: delay, per-access seconds, load penalty, atomic penalty), seconds
_Prices = Tuple[Delay, Delay, float, float, float]


def poll_wait_block(
    rng: np.random.Generator, interval: float, size: int
) -> np.ndarray:
    """``size`` lock-poll waits ``interval * uniform(0.5, 1.5)`` (seconds).

    Equal element by element to ``size`` successive scalar draws
    ``interval * float(rng.uniform(0.5, 1.5))``.
    """
    return interval * rng.uniform(0.5, 1.5, size)


class SharedWindow:
    """A node-local shared-memory window with named cells.

    ``cells`` hold named integers (counters, flags) accessed through
    :meth:`load`/:meth:`store` at per-access cost.  Structured queue
    contents (a :class:`~repro.core.workqueue.TierQueue`) live with the
    caller, which charges their access costs explicitly through
    :meth:`access` — keeping the cost model honest without forcing
    byte-level encoding.

    All mutating accesses must happen while holding the window lock;
    violations raise immediately (they would be data races on real
    hardware).
    """

    def __init__(
        self,
        world: "MpiWorld",
        node,
        cells: Dict[str, int],
        home_rank: Optional[int] = None,
    ):
        self.world = world
        #: window key: node index, or any hashable for finer-grained
        #: windows (e.g. ``(node, socket)`` for a socket-level queue)
        self.node = node
        self.cells: Dict[str, int] = dict(cells)
        # int keys keep their historical stream names so per-node
        # windows (and thus every two-level run) stay bit-identical
        tag = (
            str(node)
            if not isinstance(node, tuple)
            else "-".join(str(part) for part in node)
        )
        self._lock = Lock(world.sim, name=f"shmwin@node{tag}")
        #: next jittered lock-poll wait (seconds) of this window's stream
        self.next_poll_wait = world.sim.stream(
            f"shm-lockpoll.node{tag}",
            poll_wait_block,
            world.costs.mpi.shm_poll_interval,
        )
        self._sync = Overhead(world.costs.mpi.shm_win_sync)
        if home_rank is None:
            group = world.placement.tier_groups(MAX_DEPTH).get(node)
            home_rank = group.members[0] if group is not None else None
        #: rank whose NUMA domain physically hosts the window's pages.
        #: Default: the lowest rank of the tier group the key names in
        #: :meth:`Placement.tier_groups
        #: <repro.cluster.topology.Placement.tier_groups>` (first-touch
        #: allocation by the group leader); a placement plan may
        #: override it with any group member via ``home_rank``.
        #: Accesses from other ranks pay the locality-tier penalties of
        #: the cost model; None for free-form keys, which stay
        #: distance-blind.
        self.home_rank: Optional[int] = home_rank
        #: per-rank price memo — the tier of a (rank, window) pair
        #: changes only when :meth:`fail_over` re-homes the window
        self._prices: Dict[int, _Prices] = {}
        # statistics
        self.n_acquisitions = 0
        self.n_attempts = 0
        self.total_poll_wait = 0.0
        self.max_attempts_per_acquire = 0
        self.n_syncs = 0
        #: leases broken after their holder crash-stopped mid-epoch
        self.n_leases_broken = 0
        #: times the window was re-homed after its home rank died
        self.n_failovers = 0
        #: accumulated locality-tier penalty seconds actually charged on
        #: this window (lock attempts, unlocks, loads, accesses,
        #: atomics) — the distance-priced share of its traffic, which is
        #: what queue *placement* can change.  Zero with default knobs.
        self.total_penalty_s = 0.0

    def _prices_of(self, rank: int) -> _Prices:
        """``rank``'s priced costs on this window (memoised).

        Lock attempts and unlocks are messages to the window's home
        NUMA domain and pay the atomic penalty; loads, stores and
        accesses pay the load penalty.  Both are zero for free-form
        keys and with default knobs.
        """
        prices = self._prices.get(rank)
        if prices is None:
            if self.home_rank is None:
                load_penalty = atomic_penalty = 0.0
            else:
                net = self.world.interconnect
                load_penalty = net.load_penalty(rank, self.home_rank)
                atomic_penalty = net.atomic_penalty(rank, self.home_rank)
            mpi = self.world.costs.mpi
            prices = self._prices[rank] = (
                Overhead(mpi.shm_lock_attempt + atomic_penalty),
                Overhead(mpi.shm_unlock + atomic_penalty),
                mpi.shm_access + load_penalty,
                load_penalty,
                atomic_penalty,
            )
        return prices

    def _penalty_of(self, ctx: "RankCtx") -> Tuple[float, float]:
        """(load, atomic) locality penalty for ``ctx`` on this window."""
        prices = self._prices_of(ctx.rank)
        return prices[3], prices[4]

    # ------------------------------------------------------------------
    # locking (the expensive part)
    #
    # Hot-path contract: the single-yield steps below are plain methods
    # that do their checks and accounting and *return* the priced delay,
    # which the caller yields itself — one generator frame per event.
    # An exclusive epoch reads:
    #
    #     prices = shm.attempt(ctx)
    #     yield prices[0]
    #     if not shm.try_lock(ctx):
    #         yield from shm.retry(ctx, prices)
    #     yield shm.access(ctx, n)       # any number of times
    #     yield shm.unlock(ctx)
    #     shm.release(ctx)
    #     yield shm.sync(ctx)
    #
    # :meth:`lock` is the first three steps as one generator.
    # ------------------------------------------------------------------
    def lock(self, ctx: "RankCtx"):
        """``MPI_Win_lock(MPI_LOCK_EXCLUSIVE)`` with polling retries
        (generator): :meth:`attempt`, :meth:`try_lock`, then
        :meth:`retry` if the first attempt failed."""
        prices = self.attempt(ctx)
        yield prices[0]
        if not self.try_lock(ctx):
            yield from self.retry(ctx, prices)

    def attempt(self, ctx: "RankCtx") -> _Prices:
        """Price and account the first lock-attempt message.

        Each attempt travels to the window's home NUMA domain, so a
        remote-NUMA or cross-socket requester pays the tier penalty
        (zero with default knobs).  Returns the rank's prices as of this
        attempt; the caller yields ``prices[0]`` (the attempt delay)
        and hands the tuple to :meth:`retry` should the attempt fail,
        so every retry of one acquisition is priced like its first
        attempt even if :meth:`fail_over` re-homes the window meanwhile.
        """
        prices = self._prices_of(ctx.rank)
        self.total_penalty_s += prices[4]
        return prices

    def try_lock(self, ctx: "RankCtx") -> bool:
        """Complete the first attempt: take the lock if it is free.

        On success the acquisition is recorded as a one-attempt one.
        """
        if self._lock.try_acquire(ctx.owner):
            self.record_acquisition(1)
            return True
        return False

    def retry(self, ctx: "RankCtx", prices: _Prices):
        """Poll until the lock is ours, after a failed first attempt
        (generator).

        Failed attempts retry after ``shm_poll_interval`` (jittered
        +-50% so pollers do not stay phase-locked forever), each one
        more lock-attempt message priced from ``prices`` (those
        :meth:`attempt` captured).  Polling time is accounted as
        *overhead* — the CPU is busy re-issuing attempts.
        """
        owner = ctx.owner
        attempt = prices[0]
        atomic_penalty = prices[4]
        attempts = 1
        while True:
            faults = self.world.faults
            if faults is not None and self._owner_is_dead():
                # Lease break: the exclusive lock is held by a rank that
                # crash-stopped mid-epoch.  Wait out one lease timeout
                # (the failure detector's confirmation window),
                # re-confirm, then force the lock open and retry
                # immediately.  Never taken when faults is None, so the
                # fault-free event stream is untouched.
                yield OverheadOnce(faults.lease_timeout)
                if self._owner_is_dead():
                    self._lock.force_release()
                    self.n_leases_broken += 1
            else:
                wait = self.next_poll_wait()
                self.total_poll_wait += wait
                yield OverheadOnce(wait)  # jittered: unique per retry, skip interning
            attempts += 1
            self.total_penalty_s += atomic_penalty
            yield attempt
            if self._lock.try_acquire(owner):
                self.record_acquisition(attempts)
                return

    def record_acquisition(self, attempts: int) -> None:
        """Account one acquisition that took ``attempts`` lock attempts.

        The single ledger of the lock counters, shared by the scalar
        protocol above and the cohort engine's deferred lock-poll
        realisation.
        """
        self.n_attempts += attempts
        self.n_acquisitions += 1
        if attempts > self.max_attempts_per_acquire:
            self.max_attempts_per_acquire = attempts

    def unlock(self, ctx: "RankCtx") -> Delay:
        """``MPI_Win_unlock``: the epoch-closing message home.

        Returns the priced delay; the caller yields it, then calls
        :meth:`release`.
        """
        if self._lock.owner != ctx.owner:
            self._require_held(ctx)
        prices = self._prices_of(ctx.rank)
        self.total_penalty_s += prices[4]
        return prices[1]

    def release(self, ctx: "RankCtx") -> None:
        """Drop the lock once the :meth:`unlock` delay has elapsed."""
        self._lock.release()

    def sync(self, ctx: "RankCtx") -> Delay:
        """``MPI_Win_sync`` memory barrier; returns its delay."""
        self.n_syncs += 1
        return self._sync

    def _owner_is_dead(self) -> bool:
        """True when the lock is held by a crash-stopped rank."""
        owner = self._lock.owner
        if owner is None or not owner.startswith("rank"):
            return False
        try:
            rank = int(owner[4:])
        except ValueError:
            return False
        return not self.world.rank_alive(rank)

    def fail_over(self, new_home: int) -> None:
        """Re-home the window on ``new_home`` after its home rank died.

        Coordinator failover: the next live rank of the tier group
        adopts the window (re-first-touching its pages), so locality
        penalties are re-priced against the new home.  Instantaneous in
        simulated time — the recovery protocol's latency is charged by
        the fault injector, not here.
        """
        self.home_rank = new_home
        self._prices.clear()
        self.n_failovers += 1

    @property
    def locked(self) -> bool:
        """Whether some rank holds the exclusive window lock."""
        return self._lock.locked

    def _require_held(self, ctx: "RankCtx") -> None:
        """The *calling rank* must own the exclusive lock.

        Merely checking that the lock is held is not enough: rank A
        mutating the window while rank B holds the lock is exactly the
        data race ``MPI_Win_lock`` exists to prevent.
        """
        if not self._lock.locked:
            raise RuntimeError(
                f"shared window on node {self.node} accessed without holding "
                "MPI_Win_lock — this is a data race"
            )
        owner = ctx.owner
        if self._lock.owner != owner:
            raise RuntimeError(
                f"shared window on node {self.node} accessed by {owner} while "
                f"{self._lock.owner} holds MPI_Win_lock — this is a data race"
            )

    # ------------------------------------------------------------------
    # data access (cheap, but must hold the lock)
    # ------------------------------------------------------------------
    def load(self, ctx: "RankCtx", cell: str):
        """Read one named cell (generator; requires the calling rank's lock)."""
        self._require_held(ctx)
        self._check_cell(cell)
        prices = self._prices_of(ctx.rank)
        self.total_penalty_s += prices[3]
        yield Overhead(prices[2])
        return self.cells[cell]

    def store(self, ctx: "RankCtx", cell: str, value: int):
        """Write one named cell (generator; requires the calling rank's lock)."""
        self._require_held(ctx)
        self._check_cell(cell)
        prices = self._prices_of(ctx.rank)
        self.total_penalty_s += prices[3]
        yield Overhead(prices[2])
        self.cells[cell] = value

    def access(self, ctx: "RankCtx", n: int = 1) -> Delay:
        """Charge ``n`` shared-memory accesses to structured contents.

        Models keep their queue contents as Python objects and mutate
        them directly, but must account the touches through this method
        (and hold the lock).  Returns the priced delay for the caller to
        yield.
        """
        if self._lock.owner != ctx.owner:
            self._require_held(ctx)
        prices = self._prices_of(ctx.rank)
        self.total_penalty_s += n * prices[3]
        return Overhead(n * prices[2])

    def _check_cell(self, cell: str) -> None:
        if cell not in self.cells:
            raise KeyError(f"shared window has no cell {cell!r}")

    def peek(self, cell: str) -> int:
        """Zero-cost read for tests/assertions (not a simulated op)."""
        self._check_cell(cell)
        return self.cells[cell]

    # ------------------------------------------------------------------
    @property
    def mean_attempts_per_acquire(self) -> float:
        """Lock attempts per acquisition (0.0 before the first one)."""
        if self.n_acquisitions == 0:
            return 0.0
        return self.n_attempts / self.n_acquisitions

    def contention_stats(self) -> Dict[str, float]:
        """Lock-contention counters of this window (waits in seconds)."""
        return {
            "acquisitions": self.n_acquisitions,
            "attempts": self.n_attempts,
            "mean_attempts": self.mean_attempts_per_acquire,
            "max_attempts": self.max_attempts_per_acquire,
            "total_poll_wait": self.total_poll_wait,
            "syncs": self.n_syncs,
            "total_penalty_s": self.total_penalty_s,
        }
