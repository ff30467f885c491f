"""One-sided RMA window with remote atomics.

Implements the *global work queue* substrate of the distributed
chunk-calculation approach: a window of named integer cells hosted on
one rank, supporting ``MPI_Fetch_and_op``-style atomics from any rank.

Cost model
----------
Atomic operations are serialised at the *target*: the target can retire
one atomic at a time (hardware/NIC-agent serialisation), modelled by a
hidden FIFO lock held for the processing time.  Origin ranks
additionally pay network latency each way when the target is on a
different node, and the locality-tier penalties of
:class:`~repro.cluster.costs.MpiCosts` when the host window's memory
sits in another NUMA domain or socket (zero by default).  Under heavy
contention (all ranks hammering the step counter) this produces the
realistic queueing delay that motivates the paper's *hierarchical*
design in the first place — the local queue absorbs most of the
traffic.

Conventions: latencies, processing times and penalties are simulated
seconds.  Origins are MPI ranks; each rank's atomic is priced once
from its tier to the host rank and reused until
:meth:`Window.fail_over` re-hosts the window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.cluster.interconnect import Tier
from repro.sim.primitives import Delay, Overhead
from repro.sim.resources import Lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.world import MpiWorld, RankCtx


#: one origin's priced atomic: (latency, processing, remote, latency
#: delay or None when local, processing delay); seconds
_Prices = Tuple[float, float, bool, Optional[Delay], Delay]

_OPS = {
    "sum": lambda old, value: old + value,
    "replace": lambda old, value: value,
    "max": lambda old, value: max(old, value),
    "min": lambda old, value: min(old, value),
    "no_op": lambda old, value: old,
}


class Window:
    """An RMA window of named integer cells hosted on ``host_rank``."""

    def __init__(self, world: "MpiWorld", host_rank: int, cells: Dict[str, int]):
        if not 0 <= host_rank < world.size:
            raise ValueError(f"invalid host rank {host_rank}")
        self.world = world
        self.host_rank = host_rank
        self.host_node = world.placement.node_of(host_rank)
        self.cells: Dict[str, int] = dict(cells)
        self._unit = Lock(world.sim, name=f"win@{host_rank}.atomic-unit")
        #: per-rank price memo (see :meth:`price_of`)
        self._prices: Dict[int, _Prices] = {}
        # statistics
        self.n_atomics = 0
        self.n_remote_atomics = 0
        #: times the window was re-hosted after its host rank died
        self.n_failovers = 0
        #: accumulated atomic service seconds (latency both ways +
        #: serialised target processing + locality-tier penalty) — the
        #: distance-priced traffic the *host* placement can change.
        self.total_atomic_time_s = 0.0

    # ------------------------------------------------------------------
    def fail_over(self, new_host: int) -> None:
        """Re-host the window on ``new_host`` after its host rank died.

        Coordinator failover for the *global* queue state: the window's
        cells migrate to the new host (their values survive — the
        recovery protocol replicates them), and all subsequent atomics
        are priced against the new host's location.  Instantaneous in
        simulated time; the protocol's latency is charged by the fault
        injector.
        """
        if not 0 <= new_host < self.world.size:
            raise ValueError(f"invalid failover host rank {new_host}")
        self.host_rank = new_host
        self.host_node = self.world.placement.node_of(new_host)
        self._prices.clear()
        self.n_failovers += 1

    def price_of(self, rank: int) -> _Prices:
        """One atomic from ``rank``, priced once per host (memoised).

        Returns ``(latency, processing, remote, latency delay,
        processing delay)``.  A network-remote origin pays ``latency``
        seconds each way (the delay is None for a local origin) plus
        ``rma_atomic`` processing at the target; any other origin pays
        ``shm_atomic``.  Processing adds the locality-tier atomic
        penalty of the origin's distance to the host (zero by default).
        """
        prices = self._prices.get(rank)
        if prices is None:
            mpi = self.world.costs.mpi
            tier = self.world.interconnect.distance(rank, self.host_rank)
            remote = tier is Tier.NETWORK
            latency = self.world.cluster.network_latency if remote else 0.0
            processing = (
                mpi.rma_atomic if remote else mpi.shm_atomic
            ) + mpi.tier_atomic_penalty(tier)
            prices = self._prices[rank] = (
                latency,
                processing,
                remote,
                Overhead(latency) if latency else None,
                Overhead(processing),
            )
        return prices

    def _check_cell(self, cell: str) -> None:
        if cell not in self.cells:
            raise KeyError(f"window has no cell {cell!r}; cells: {list(self.cells)}")

    def _priced_atomic(self, ctx: "RankCtx", mutate, on_commit=None):
        """Run one serialised, distance-priced atomic at the target
        (generator); returns ``mutate()``'s result (the *old* value).

        The shared protocol behind :meth:`fetch_and_op` and
        :meth:`compare_and_swap`: the origin pays one-way latency to
        reach a network-remote target, queues on the target's hidden
        FIFO unit, pays the serialised processing time (plus the
        locality-tier penalty), applies ``mutate`` — which reads and
        updates the cell and returns the pre-update value — and finally
        pays the return latency.

        Statistics (``n_atomics``/``total_atomic_time_s``) accrue
        *inside* the critical section, the instant the update commits:
        an origin that crashes before its atomic is retired (mid-request
        latency, or while queued on the unit) must not inflate the
        placement counters with service time the target never spent.

        ``on_commit(old)`` also runs inside the critical section —
        before the return-latency yield, so a caller that crashes while
        the result is in flight has still registered the side effect
        (failure-aware layers use this for their claims ledger).
        """
        latency, processing, remote, latency_delay, processing_delay = (
            self.price_of(ctx.rank)
        )
        if latency_delay is not None:
            yield latency_delay
        unit = self._unit
        if not unit.try_acquire(ctx.owner):
            # contended: queue FIFO behind the atomic in service
            yield from unit.acquire(ctx.owner)
        try:
            yield processing_delay
            old = mutate()
            self.n_atomics += 1
            if remote:
                self.n_remote_atomics += 1
            self.total_atomic_time_s += processing + 2.0 * latency
            if on_commit is not None:
                on_commit(old)
        finally:
            unit.release()
        if latency_delay is not None:
            yield latency_delay
        return old

    def fetch_and_op(
        self,
        ctx: "RankCtx",
        cell: str,
        value: int = 0,
        op: str = "sum",
        on_commit=None,
    ):
        """Atomic read-modify-write; returns the :meth:`_priced_atomic`
        generator, which returns the *old* value.

        ``op='no_op'`` gives ``MPI_Get_accumulate`` semantics (atomic
        read).  The calling rank is charged one-way latency, serialised
        processing at the target, and the return latency; see
        :meth:`_priced_atomic` for the timing/accounting protocol and
        the ``on_commit(old)`` hook.  The cell and the op are checked
        at call time.
        """
        self._check_cell(cell)
        if op not in _OPS:
            raise ValueError(f"unsupported RMA op {op!r}")

        def mutate() -> int:
            old = self.cells[cell]
            self.cells[cell] = _OPS[op](old, value)
            return old

        return self._priced_atomic(ctx, mutate, on_commit)

    def atomic_get(self, ctx: "RankCtx", cell: str):
        """Atomic read of a cell; returns the generator of
        :meth:`fetch_and_op` with ``op='no_op'``."""
        return self.fetch_and_op(ctx, cell, 0, op="no_op")

    def compare_and_swap(
        self,
        ctx: "RankCtx",
        cell: str,
        expected: int,
        desired: int,
        on_commit=None,
    ):
        """``MPI_Compare_and_swap``; returns the :meth:`_priced_atomic`
        generator, which returns the old value.

        The swap commits only when the cell holds ``expected``; either
        way the origin pays the full priced-atomic protocol (see
        :meth:`_priced_atomic`).  ``on_commit(old)`` runs inside the
        critical section whether or not the swap won — the callback can
        compare ``old`` with the expected value to tell (CAS-based
        lock/lease protocols need the losing case too).
        """
        self._check_cell(cell)

        def mutate() -> int:
            old = self.cells[cell]
            if old == expected:
                self.cells[cell] = desired
            return old

        return self._priced_atomic(ctx, mutate, on_commit)

    def get(self, ctx: "RankCtx", cell: str, nbytes: int = 8):
        """Non-atomic ``MPI_Get`` of one cell (generator)."""
        self._check_cell(cell)
        yield Overhead(
            self.world.interconnect.transfer_time(ctx.rank, self.host_rank, nbytes)
        )
        return self.cells[cell]

    def put(self, ctx: "RankCtx", cell: str, value: int, nbytes: int = 8):
        """Non-atomic ``MPI_Put`` to one cell (generator)."""
        self._check_cell(cell)
        yield Overhead(
            self.world.interconnect.transfer_time(ctx.rank, self.host_rank, nbytes)
        )
        self.cells[cell] = value

    def peek(self, cell: str) -> int:
        """Zero-cost read for tests/assertions (not a simulated op)."""
        self._check_cell(cell)
        return self.cells[cell]
