"""MPI world and per-rank context.

:class:`MpiWorld` wires a :class:`~repro.sim.engine.Simulator`, a
:class:`~repro.cluster.machine.ClusterSpec`, and a placement into a set
of rank processes.  Rank main functions are generators taking a
:class:`RankCtx`; all MPI operations are generator methods used with
``yield from`` so their simulated costs accrue to the calling rank.

Conventions: every time and cost is simulated seconds.  Ranks are
``0 .. size - 1`` in placement order; ``RankCtx.node`` is a node index
into the cluster; tier groups come from :meth:`Placement.tier_groups
<repro.cluster.topology.Placement.tier_groups>`.

Per-rank state is built on first use: the rank contexts at launch, a
rank's mailbox at its first send or receive, the world barrier at the
first ``barrier()`` — so the cohort engine's worlds hold none of it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
)

from repro.cluster.costs import CostModel, DEFAULT_COSTS
from repro.cluster.interconnect import Interconnect
from repro.cluster.machine import ClusterSpec
from repro.cluster.topology import Placement, block_placement
from repro.sim.engine import Process, Simulator, drain
from repro.sim.primitives import Command, Overhead
from repro.sim.resources import Barrier
from repro.smpi.p2p import Mailbox, Message
from repro.smpi.rma import Window
from repro.smpi.shm import SharedWindow

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.faults import FaultModel

MainFn = Callable[["RankCtx"], Generator[Command, Any, Any]]


class _Mailboxes(dict):
    """rank -> :class:`Mailbox`, built on the rank's first send or receive."""

    def __init__(self, sim: Simulator):
        super().__init__()
        self.sim = sim

    def __missing__(self, rank: int) -> Mailbox:
        box = self[rank] = Mailbox(self.sim, rank)
        return box


class MpiWorld:
    """All global state of one simulated MPI job."""

    def __init__(
        self,
        sim: Simulator,
        cluster: ClusterSpec,
        ppn: Optional[int] = None,
        costs: CostModel = DEFAULT_COSTS,
        faults: Optional["FaultModel"] = None,
    ):
        self.sim = sim
        self.cluster = cluster
        #: fault schedule in effect, or None for a fault-free world.
        #: Consulted by the passive-target lock poller (lease breaking);
        #: None guarantees the fault-free event stream.
        self.faults = faults
        if ppn is None:
            ppn = min(node.cores for node in cluster.nodes)
        self.ppn = ppn
        self.placement: Placement = block_placement(cluster, ppn)
        self.costs = costs
        # the interconnect owns the rank -> (node, socket, numa, core)
        # mapping: all its queries take *ranks*, never node indices
        self.interconnect = Interconnect(cluster, costs.mpi, self.placement)
        self.size = self.placement.size
        self._mailboxes = _Mailboxes(sim)
        self._barrier: Optional[Barrier] = None
        self._contexts: Optional[List[RankCtx]] = None
        self._shared_windows: Dict[Any, SharedWindow] = {}
        sim.on_close(self.close)

    def close(self) -> None:
        """Drop the per-rank state once the run is over.

        Each :class:`RankCtx` points back at its world, so the contexts
        would otherwise keep the world (and the world them) alive until
        the cyclic collector runs.  Called by :meth:`Simulator.close`.
        """
        self._contexts = []
        self._mailboxes.clear()
        self._shared_windows = {}

    @property
    def contexts(self) -> List["RankCtx"]:
        """One :class:`RankCtx` per rank, in rank order (built on first use)."""
        if self._contexts is None:
            self._contexts = [RankCtx(self, rank) for rank in range(self.size)]
        return self._contexts

    # ------------------------------------------------------------------
    def launch(self, main: MainFn, name_prefix: str = "rank") -> List[Process]:
        """Spawn one process per rank running ``main(ctx)``."""
        processes = []
        for ctx in self.contexts:
            process = self.sim.spawn(main(ctx), name=f"{name_prefix}{ctx.rank}")
            process.meta["rank"] = ctx.rank
            process.meta["node"] = ctx.node
            ctx.process = process
            processes.append(process)
        return processes

    def run(
        self,
        main: MainFn,
        name_prefix: str = "rank",
        max_sim_time: Optional[float] = None,
    ) -> List[Process]:
        """Launch and run to completion; raises on deadlock.

        ``max_sim_time`` arms the engine watchdog (seconds of simulated
        time) so a livelocked configuration fails loudly.
        """
        processes = self.launch(main, name_prefix)
        drain(self.sim, processes, max_sim_time=max_sim_time)
        return processes

    def rank_alive(self, rank: int) -> bool:
        """False only for a crash-stopped rank (a rank that finished
        normally is not *dead* — it just has no more work).  A world
        that launched no rank processes has no dead rank."""
        if self._contexts is None:
            return True
        process = self._contexts[rank].process
        return process is None or not process.killed

    # ------------------------------------------------------------------
    def create_window(self, host_rank: int, cells: Dict[str, int]) -> Window:
        """Collectively allocate an RMA window hosted on ``host_rank``."""
        return Window(self, host_rank, cells)

    def create_shared_window(
        self, node, cells: Dict[str, int], home_rank: Optional[int] = None
    ) -> SharedWindow:
        """Allocate a shared-memory window (``MPI_Win_allocate_shared``).

        ``node`` is the window's key: a tier-group key of
        :meth:`Placement.tier_groups
        <repro.cluster.topology.Placement.tier_groups>` (the node index
        for the classic per-node local queue, ``(node, socket)`` or
        ``(node, socket, numa)`` for the finer-grained windows of deeper
        stacks), or any other hashable — each key gets its own lock, so
        socket- and NUMA-level queues do not contend on the node lock.

        ``home_rank`` overrides the rank whose NUMA domain first-touches
        the window's pages (default: the tier group's leader) — the
        lever of :mod:`repro.cluster.placement_opt`.
        """
        if node in self._shared_windows:
            raise RuntimeError(f"shared window {node!r} already exists")
        window = SharedWindow(self, node, cells, home_rank=home_rank)
        self._shared_windows[node] = window
        return window


class RankCtx:
    """Per-rank view of the MPI world (what real code gets from MPI).

    All communication methods are generators; use them with
    ``yield from`` inside rank main functions.
    """

    __slots__ = ("world", "rank", "node", "socket", "numa", "core", "owner", "process")

    def __init__(self, world: MpiWorld, rank: int):
        self.world = world
        self.rank = rank
        self.node, self.socket, self.numa, self.core = world.placement.slots[rank]
        #: owner tag this rank leaves on the locks it holds
        self.owner = f"rank{rank}"
        self.process: Optional[Process] = None

    # -- introspection ---------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.world.size

    @property
    def sim(self) -> Simulator:
        """The world's simulator (its clock is in seconds)."""
        return self.world.sim

    @property
    def node_ranks(self) -> List[int]:
        """Ranks sharing this rank's node (the shared-memory communicator)."""
        return self.world.placement.ranks_on_node(self.node)

    @property
    def is_node_leader(self) -> bool:
        """Whether this is the lowest rank on its node."""
        return self.rank == self.node_ranks[0]

    @property
    def core_speed(self) -> float:
        """Relative speed of this rank's node's cores (1.0 = reference)."""
        return self.world.cluster.node_of(self.node).core_speed

    def name(self) -> str:
        """Trace name: rank, node index and core, e.g. ``rank5(n1.c1)``."""
        return f"rank{self.rank}(n{self.node}.c{self.core})"

    # -- two-sided -------------------------------------------------------
    def send(self, dest: int, tag: int, payload: Any, nbytes: int = 64):
        """Blocking standard-mode send (completes when the message is
        handed to the transport; delivery happens after the modelled
        transfer time)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"send to invalid rank {dest}")
        transfer = self.world.interconnect.message_time(self.rank, dest, nbytes)
        # Sender-side software overhead is paid by the sender now.
        yield Overhead(self.world.costs.mpi.p2p_overhead)
        message = Message(source=self.rank, tag=tag, payload=payload, nbytes=nbytes)
        self.world._mailboxes[dest].deliver_after(transfer, message)

    def recv(self, source: int, tag: int):
        """Blocking receive matching ``(source, tag)``; returns payload."""
        message = yield from self.world._mailboxes[self.rank].get(source, tag)
        # Receiver-side software overhead.
        yield Overhead(self.world.costs.mpi.p2p_overhead)
        return message.payload

    def recv_any(self, tag: int):
        """Blocking receive matching ``(ANY_SOURCE, tag)``; returns (source, payload)."""
        message = yield from self.world._mailboxes[self.rank].get_any(tag)
        yield Overhead(self.world.costs.mpi.p2p_overhead)
        return message.source, message.payload

    # -- collectives -------------------------------------------------------
    def barrier(self):
        """``MPI_Barrier`` over the world communicator (log-tree cost)."""
        import math

        stages = math.ceil(math.log2(self.size)) if self.size > 1 else 0
        yield Overhead(self.world.costs.mpi.collective_stage * stages)
        world = self.world
        if world._barrier is None:
            world._barrier = Barrier(world.sim, self.size, name="mpi-world-barrier")
        yield from world._barrier.wait()
