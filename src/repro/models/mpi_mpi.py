"""The paper's contribution: hierarchical DLS with the MPI+MPI approach.

Architecture (paper Section 3, Figure 1):

* one **global work queue** — an RMA window holding the latest
  scheduling step and total scheduled iterations (distributed chunk
  calculation, no master);
* one **local work queue per machine tier group** — an MPI-3
  shared-memory window (``MPI_Win_allocate_shared``) guarded by
  exclusive ``MPI_Win_lock``/``MPI_Win_unlock`` (lock *polling*!) and
  ``MPI_Win_sync``;
* ``ppn`` MPI processes per node, each one an independent worker:

  1. lock the local queue and try to take a *sub-chunk* via the
     queue's DLS technique;
  2. if the local queue is dry, obtain a *chunk* from the parent tier
     (recursively, up to the global queue) while holding the lock,
     deposit the chunk, take the first sub-chunk;
  3. execute, repeat.

Nobody waits for anybody: the responsibility for refilling is not
pinned to a coordinator — whichever process drains a queue first
(the *fastest* process) refills it, and several processes may refill
concurrently (each queue holds a list of ranges).  There is no implicit
barrier at any point, which is exactly what Figure 3 illustrates.

The paper composes exactly two levels (global queue across nodes +
one local queue per node).  This implementation generalises the same
protocol to an **arbitrary-depth level stack** mapped onto the machine
tiers cluster -> node -> socket -> numa -> core:

* depth 1 — every rank fetches directly from the global queue
  (the flat distributed-chunk-calculation baseline, in-protocol);
* depth 2 — the paper's configuration, bit-identical to the original
  two-level implementation;
* depth 3 — a per-socket queue nests inside the per-node queue
  (``GSS+FAC2+STATIC``): each socket queue has its own window *and its
  own lock*, so the fine-grained leaf grabs of a wide node contend on
  ``cores_per_socket`` peers instead of all ``ppn`` — socket-aware
  local queues cut the simulated lock-polling contention that makes
  ``X+SS`` poor on wide nodes;
* depth 4 — a per-NUMA-domain queue nests inside the per-socket queue
  (``W+X+Y+Z``, e.g. ``GSS+FAC2+FAC2+STATIC``): again each NUMA
  window carries its own lock, so leaf contention drops to
  ``cores_per_numa`` peers and refill traffic climbs the tier tree
  numa -> socket -> node -> global.

A spec deeper than the machine's tier count raises ``ValueError``.

Conventions: every simulated time and cost is in seconds.  Workers are
MPI ranks; a tier queue is keyed by its node index (tier 1), a
``(node, socket)`` pair (tier 2) or a ``(node, socket, numa)`` triple
(tier 3), and a rank's child index within its leaf queue is its
local, socket or NUMA rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import trace as trace_mod
from repro.core.technique_base import ChunkCalculator
from repro.models.base import ExecutionModel, GlobalQueue, _Run, run_world
from repro.sim.primitives import ComputeOnce, Timeout
from repro.smpi.shm import SharedWindow
from repro.smpi.world import MpiWorld, RankCtx

#: maximum scheduling depth:
#: cluster->node, node->socket, socket->numa, numa->core
MAX_LEVELS = 4


@dataclass
class _QueuedChunk:
    """One deposited chunk in a tier's local work queue."""

    #: scheduling step of the *parent* level that carved this chunk
    src_step: int
    start: int
    size: int
    taken: int = 0
    local_step: int = 0
    calc: Optional[ChunkCalculator] = None
    #: listening chain: the (calculator, pe) pairs from the immediate
    #: parent up to the global queue whose calculator listens to
    #: runtime feedback (built at deposit time)
    ancestors: Tuple[Tuple[ChunkCalculator, int], ...] = ()

    @property
    def remaining(self) -> int:
        return self.size - self.taken


class _LocalQueue:
    """Python-side view of one tier group's shared-memory work queue.

    All mutating methods must be called while the caller holds the
    shared window's lock; the simulated access costs are charged by
    the caller through ``SharedWindow.access``.

    ``parent`` is the queue one tier up (None when the parent is the
    global RMA queue); ``parent_pe`` is this queue's child index within
    its parent (the node index at tier 1, the socket's position within
    its node at tier 2, the NUMA domain's position within its socket at
    tier 3) — the ``pe`` argument for PE-dependent parent techniques.
    """

    def __init__(
        self,
        run: _Run,
        level: int,
        n_children: int,
        shm: SharedWindow,
        rng_stream: str,
        parent: "Optional[_LocalQueue]",
        parent_pe: int,
        global_queue: Optional[GlobalQueue] = None,
    ):
        self.run = run
        #: index into ``spec.levels`` of the technique carving deposits
        self.level = level
        self.n_children = n_children
        self.shm = shm
        self.rng_stream = rng_stream
        self.parent = parent
        self.parent_pe = parent_pe
        self.global_queue = global_queue
        # "no refill will ever arrive again" flag; named after the
        # two-level implementation where the only parent was the global
        # queue, and kept for window-layout compatibility
        shm.cells.setdefault("global_done", 0)
        self.ranges: List[_QueuedChunk] = []
        shm.state["queue"] = self.ranges  # visible to tests/inspection
        #: ADAPT calculators this queue instantiated (selector reporting)
        self.adaptive_calcs: List[ChunkCalculator] = []

    def deposit(
        self,
        src_step: int,
        start: int,
        size: int,
        ancestors: Tuple[Tuple[ChunkCalculator, int], ...],
    ) -> None:
        """Queue a chunk carved by the parent level.

        ``ancestors`` is the chunk's feedback chain, immediate parent
        first; only its listening calculators are kept, so a worker's
        per-chunk feedback loop visits no calculator that ignores it.
        """
        ancestors = tuple(link for link in ancestors if link[0].listens)
        calc = self.run.spec.levels[self.level].make_calculator(
            size,
            self.n_children,
            rng=self.run.sim.rng(self.rng_stream),
            chunk_overhead=self.run.costs.chunk_calc,
        )
        if hasattr(calc, "mode_history"):  # ADAPT selector bookkeeping
            self.adaptive_calcs.append(calc)
        self.ranges.append(
            _QueuedChunk(
                src_step=src_step,
                start=start,
                size=size,
                calc=calc,
                ancestors=ancestors,
            )
        )

    def take(self, child: int):
        """Take the next sub-chunk, or None if the queue is dry.

        Returns ``(head, start, size, step)`` — ``step`` is captured
        here, under the caller's lock, because ``head.local_step`` keeps
        advancing once the lock is released (another child may take from
        the same head while the caller is still in its unlock/sync
        yields).
        """
        while self.ranges:
            head = self.ranges[0]
            step = head.local_step
            remaining = head.size - head.taken
            size = min(head.calc.size_at(step, pe=child), remaining)
            if size <= 0:
                self.ranges.pop(0)
                continue
            sub_start = head.start + head.taken
            head.taken += size
            head.local_step += 1
            if size == remaining:
                self.ranges.pop(0)
            return head, sub_start, size, step
        return None


def _queue_key_order(key) -> Tuple:
    """Canonical sort key for tier-queue keys (ints and tuples mix)."""
    return key if isinstance(key, tuple) else (key,)


def sorted_queue_items(local_queues: Dict[object, _LocalQueue]):
    """Tier queues in canonical (node, socket, numa) order.

    Counter accrual must not depend on dict insertion order (which
    follows rank/window registration order), so every reduction over
    the queues walks this canonical ordering.  For the historical
    construction order the two coincide, keeping all sums bit-exact.
    """
    return sorted(local_queues.items(), key=lambda item: _queue_key_order(item[0]))


def collect_queue_counters(
    run: _Run,
    queue: GlobalQueue,
    local_queues: Dict[object, _LocalQueue],
    plan=None,
) -> None:
    """Fill ``run.counters`` from the global queue + tier windows.

    Shared by the scalar and cohort engines so both report identical
    counters: atomics, lock contention, placement accounting
    (``lock_penalty_s`` + ``global_atomic_time_s`` — the
    distance-priced share of the queue traffic), window homes, and the
    ADAPT selector ledgers.  All floating-point reductions walk the
    canonical queue order of :func:`sorted_queue_items`, independent of
    event-ID tie-breaks and registration order.
    """
    queues = sorted_queue_items(local_queues)
    run.counters["global_atomics"] = queue.window.n_atomics
    run.counters["remote_atomics"] = queue.window.n_remote_atomics
    run.counters["lock_stats"] = {
        key: lq.shm.contention_stats() for key, lq in queues
    }
    run.counters["total_poll_wait"] = sum(
        lq.shm.total_poll_wait for _, lq in queues
    )
    run.counters["lock_acquisitions"] = sum(
        lq.shm.n_acquisitions for _, lq in queues
    )
    # --- placement accounting: the distance-priced share of the
    # queue traffic (what choosing window homes can change).
    # ``lock_penalty_s`` sums the locality penalties actually
    # charged on every shared window (lock attempts, unlocks,
    # loads, accesses); ``global_atomic_time_s`` is the full
    # service time of the global RMA window's atomics (latency +
    # target processing + penalty).  Their sum is the measured
    # placement objective reported by the placement sweeps.
    lock_penalty = sum(lq.shm.total_penalty_s for _, lq in queues)
    run.counters["lock_penalty_s"] = lock_penalty
    run.counters["global_atomic_time_s"] = queue.window.total_atomic_time_s
    run.counters["placement_cost_s"] = (
        lock_penalty + queue.window.total_atomic_time_s
    )
    run.counters["placement"] = (
        run.placement if isinstance(run.placement, str) else "explicit"
    )
    run.counters["window_homes"] = {
        "global": queue.window.host_rank,
        **{key: lq.shm.home_rank for key, lq in queues},
    }
    if plan is not None:
        run.counters["placement_moved"] = plan.moved
        run.counters["placement_objective_s"] = plan.objective
    # ADAPT selector reporting: every selector instantiated at any
    # tier (plus a root-level one) contributes its switch ledger
    adapt_calcs = [
        calc for _, lq in queues for calc in lq.adaptive_calcs
    ]
    if hasattr(queue.calc, "mode_history"):
        adapt_calcs.append(queue.calc)
    if adapt_calcs:
        modes: Dict[str, int] = {}
        for calc in adapt_calcs:
            modes[calc.mode] = modes.get(calc.mode, 0) + 1
        run.counters["adapt_switches"] = sum(
            calc.switch_count for calc in adapt_calcs
        )
        run.counters["adapt_final_modes"] = modes


class MpiMpiModel(ExecutionModel):
    """Hierarchical DLS via MPI+MPI (the proposed approach)."""

    name = "mpi+mpi"
    supports_placement = True
    supports_faults = True

    def _execute(self, run: _Run) -> None:
        depth = run.spec.depth
        if depth > MAX_LEVELS:
            raise ValueError(
                f"mpi+mpi maps scheduling levels onto machine tiers "
                f"cluster->node->socket->numa->core and therefore supports "
                f"at most {MAX_LEVELS} levels; got a depth-{depth} stack "
                f"({run.spec.label})"
            )
        run.n_sched_levels = depth
        # window placement: None = historical leader homes (fast path,
        # bit-exact); a plan moves the global host and/or window homes
        plan = None
        if not (isinstance(run.placement, str) and run.placement == "leader"):
            from repro.cluster.placement_opt import resolve_placement

            plan = resolve_placement(
                run.placement,
                run.spec,
                run.workload.n,
                run.cluster,
                run.ppn,
                run.costs,
            )
        world = MpiWorld(
            run.sim,
            run.cluster,
            ppn=run.ppn,
            costs=run.costs,
            faults=run.faults if run.faults_active else None,
        )
        inter_pes = world.size if depth == 1 else run.cluster.n_nodes
        inter_calc = run.spec.inter.make_calculator(
            run.workload.n,
            inter_pes,
            rng=run.sim.rng("inter-rnd"),
            chunk_overhead=run.costs.chunk_calc,
        )
        queue = GlobalQueue(
            world,
            inter_calc,
            run.workload.n,
            host_rank=0 if plan is None else plan.global_host,
            pinned=run.spec.inter.technique.pinned_per_pe,
            run=run,
        )
        local_queues = self._build_queues(run, world, queue, depth, plan)
        finish_times = {}
        chunk_counts = {}
        iter_counts = {}

        def worker(ctx: RankCtx):
            # the rank's process runs its loop generator directly: no
            # pass-through frame between the engine and the loop
            if depth == 1:
                return self._flat_worker_loop(
                    run, ctx, queue, finish_times, chunk_counts, iter_counts,
                )
            leaf, child = self._leaf_of(run, world, local_queues, ctx, depth)
            return self._worker_loop(
                run, ctx, leaf, child, finish_times, chunk_counts, iter_counts,
            )

        recover = self._make_recover(run, world, queue, local_queues, depth)
        processes = run_world(run, world, worker, recover=recover)
        for process, ctx in zip(processes, world.contexts):
            # a crash-stopped rank never reaches the loop epilogue: fall
            # back to its death time and zero chunk counts
            end = process.end_time if process.end_time is not None else run.sim.now
            run.record_worker(
                name=ctx.name(),
                node=ctx.node,
                finish_time=finish_times.get(ctx.rank, end),
                process=process,
                n_chunks=chunk_counts.get(ctx.rank, 0),
                n_iterations=iter_counts.get(ctx.rank, 0),
            )
        if run.faults_active:
            run.fault_counters["lock_leases_broken"] = sum(
                lq.shm.n_leases_broken
                for _, lq in sorted_queue_items(local_queues)
            )
        collect_queue_counters(run, queue, local_queues, plan)

    # ------------------------------------------------------------------
    def _build_queues(
        self,
        run: _Run,
        world: MpiWorld,
        queue: GlobalQueue,
        depth: int,
        plan=None,
    ) -> Dict[object, _LocalQueue]:
        """Create one local queue per tier group (tier 1: nodes, tier 2:
        sockets, tier 3: NUMA domains), wired into a refill tree rooted
        at the global queue.  ``plan`` (a
        :class:`~repro.cluster.placement_opt.PlacementPlan`) overrides
        each window's home rank; None keeps the leader defaults."""
        if depth == 1:
            return {}
        home_of = (lambda key: None) if plan is None else plan.home_of
        placement = world.placement
        local_queues: Dict[object, _LocalQueue] = {}
        for node in range(run.cluster.n_nodes):
            sockets = placement.sockets_on_node(node)
            n_children = run.ppn if depth == 2 else len(sockets)
            local_queues[node] = _LocalQueue(
                run,
                level=1,
                n_children=n_children,
                shm=world.create_shared_window(node, {}, home_rank=home_of(node)),
                rng_stream=f"intra-rnd.n{node}",
                parent=None,
                parent_pe=node,
                global_queue=queue,
            )
            if depth < 3:
                continue
            for position, socket in enumerate(sockets):
                members = placement.ranks_on_socket(node, socket)
                numas = placement.numas_on_socket(node, socket)
                socket_children = len(members) if depth == 3 else len(numas)
                local_queues[(node, socket)] = _LocalQueue(
                    run,
                    level=2,
                    n_children=socket_children,
                    shm=world.create_shared_window(
                        (node, socket), {}, home_rank=home_of((node, socket))
                    ),
                    rng_stream=f"intra-rnd.n{node}.s{socket}",
                    parent=local_queues[node],
                    parent_pe=position,
                )
                if depth < 4:
                    continue
                for numa_position, numa in enumerate(numas):
                    numa_members = placement.ranks_on_numa(node, socket, numa)
                    local_queues[(node, socket, numa)] = _LocalQueue(
                        run,
                        level=3,
                        n_children=len(numa_members),
                        shm=world.create_shared_window(
                            (node, socket, numa),
                            {},
                            home_rank=home_of((node, socket, numa)),
                        ),
                        rng_stream=f"intra-rnd.n{node}.s{socket}.m{numa}",
                        parent=local_queues[(node, socket)],
                        parent_pe=numa_position,
                    )
        return local_queues

    def _leaf_of(
        self,
        run: _Run,
        world: MpiWorld,
        local_queues: Dict[object, _LocalQueue],
        ctx: RankCtx,
        depth: int,
    ) -> Tuple[_LocalQueue, int]:
        """The queue a rank grabs sub-chunks from, and its child index."""
        if depth == 2:
            return local_queues[ctx.node], ctx.local_rank
        if depth == 3:
            return local_queues[(ctx.node, ctx.socket)], ctx.socket_rank
        return (
            local_queues[(ctx.node, ctx.socket, ctx.numa)],
            ctx.numa_rank,
        )

    # ------------------------------------------------------------------
    # failure recovery (driven by the fault injector at detection time)
    # ------------------------------------------------------------------
    @staticmethod
    def _group_ranks(world: MpiWorld, key) -> List[int]:
        """The member ranks of the tier group a queue key names."""
        placement = world.placement
        if isinstance(key, tuple):
            if len(key) == 2:
                return placement.ranks_on_socket(*key)
            return placement.ranks_on_numa(*key)
        return placement.ranks_on_node(key)

    @staticmethod
    def _descendant_keys(local_queues: Dict[object, _LocalQueue], key) -> List[object]:
        """``key`` plus every queue key nested inside its tier group."""
        prefix = key if isinstance(key, tuple) else (key,)
        found = []
        for other in local_queues:
            tup = other if isinstance(other, tuple) else (other,)
            if tup[: len(prefix)] == prefix:
                found.append(other)
        return found

    def _reopen(self, local_queues: Dict[object, _LocalQueue], key) -> None:
        """Clear ``global_done`` on ``key``'s queue and all descendants.

        Always called *after* the re-deposit: pollers check the queue
        contents before the drained flag, so a concurrent refill
        re-marking the flag can never hide the deposited work.
        """
        for other in self._descendant_keys(local_queues, key):
            local_queues[other].shm.cells["global_done"] = 0

    def _nearest_live_queue(
        self,
        world: MpiWorld,
        local_queues: Dict[object, _LocalQueue],
        dead_rank: int,
    ):
        """The re-deposit target: the queue with at least one live
        member whose home is closest to the dead rank (locality-tier
        distance of the PR-4 cost model), preferring shallower tiers
        (wider sharing) on ties."""
        best = None
        for key, lq in local_queues.items():
            if not any(
                world.rank_alive(r) for r in self._group_ranks(world, key)
            ):
                continue
            home = lq.shm.home_rank
            tier_value = (
                4 if home is None
                else world.interconnect.distance(dead_rank, home).value
            )
            order = (tier_value, lq.level, str(key))
            if best is None or order < best[0]:
                best = (order, key, lq)
        if best is None:
            return None
        return best[1], best[2]

    def _make_recover(
        self,
        run: _Run,
        world: MpiWorld,
        queue: GlobalQueue,
        local_queues: Dict[object, _LocalQueue],
        depth: int,
    ):
        """Build the per-dead-rank recovery generator for the injector."""

        def recover(dead_rank: int):
            # 1. coordinator failover: windows homed/hosted on the dead
            # rank move to the next live rank of their tier group
            for key, lq in local_queues.items():
                if lq.shm.home_rank == dead_rank:
                    live = [
                        r
                        for r in self._group_ranks(world, key)
                        if world.rank_alive(r)
                    ]
                    if live:
                        lq.shm.fail_over(live[0])
                        run.fault_counters["failovers"] += 1
            if queue.window.host_rank == dead_rank:
                live = [r for r in range(world.size) if world.rank_alive(r)]
                if live:
                    queue.window.fail_over(live[0])
                    run.fault_counters["failovers"] += 1
            # 2. reclaim: the dead rank's in-flight claims, plus the
            # remaining contents of any queue whose whole group died,
            # plus a pinned STATIC chunk the victim never fetched
            stranded = list(run.claims.pop(dead_rank, ()))
            if depth == 1 and queue.pinned and not queue._pinned_taken.get(
                dead_rank
            ):
                queue._pinned_taken[dead_rank] = True
                size = queue.calc.size_at(dead_rank)
                if size > 0:
                    start = queue.calc.start_at(dead_rank)
                    stranded.append((dead_rank, start, min(size, queue.n - start)))
            for key, lq in local_queues.items():
                members = self._group_ranks(world, key)
                if any(world.rank_alive(r) for r in members):
                    continue
                for qc in lq.ranges:
                    if qc.remaining > 0:
                        stranded.append(
                            (qc.src_step, qc.start + qc.taken, qc.remaining)
                        )
                # in-place clear: the list is aliased by shm.state["queue"]
                lq.ranges.clear()
                if (
                    isinstance(key, int)
                    and queue.pinned
                    and not queue._pinned_taken.get(key)
                ):
                    # the dead node group never fetched its pinned chunk
                    queue._pinned_taken[key] = True
                    size = queue.calc.size_at(key)
                    if size > 0:
                        start = queue.calc.start_at(key)
                        stranded.append((key, start, min(size, queue.n - start)))
            # 3. re-deposit each range into the nearest live queue (or
            # the orphan pool for depth-1 runs, which have no tiers)
            target = self._nearest_live_queue(world, local_queues, dead_rank)
            for step, start, size in stranded:
                if size <= 0:
                    continue
                if target is None:
                    run.orphans.append((step, start, size))
                else:
                    key, lq = target
                    lq.deposit(step, start, size, ancestors=())
                    self._reopen(local_queues, key)
                run.fault_counters["chunks_reexecuted"] += 1
            return
            yield  # pragma: no cover - marks this function as a generator

        return recover

    # ------------------------------------------------------------------
    def _take_from(self, run: _Run, ctx: RankCtx, q: _LocalQueue, child: int):
        """Take the next sub-chunk from ``q`` (generator).

        Returns ``(head, start, size, step)`` or None once the queue is
        dry *and* no ancestor can supply more work.  When the queue is
        dry but live, the caller refills it in place — holding the
        window lock across the parent fetch (paper Fig. 1 steps 1-2):
        other local processes keep polling the lock meanwhile instead of
        waiting for a designated coordinator.  The parent fetch recurses
        through the tier queues up to the global RMA queue.

        The window epoch is spelled out step by step (see
        :class:`~repro.smpi.shm.SharedWindow`): each step returns its
        priced delay and this frame yields it, so an uncontended epoch
        adds no generator frame below this one.
        """
        shm = q.shm
        while True:
            prices = shm.attempt(ctx)
            yield prices[0]
            if not shm.try_lock(ctx):
                yield from shm.retry(ctx, prices)
            yield shm.access(ctx, 3)  # head pointers + counters
            sub = q.take(child)
            if sub is not None:
                # claim the taken range before the unlock yields: a
                # crash between take and execution must find it in the
                # ledger
                if run.faults_active:
                    run.claim(ctx.rank, sub[3], sub[1], sub[2])
                yield shm.unlock(ctx)
                shm.release(ctx)
                yield shm.sync(ctx)
                return sub
            if shm.cells["global_done"]:
                yield shm.unlock(ctx)
                shm.release(ctx)
                return None
            # ---- this process is currently the fastest: refill --------
            if q.parent is None:
                step, start, size = yield from q.global_queue.next_chunk(
                    ctx, pe=q.parent_pe
                )
                ancestors = ((q.global_queue.calc, q.parent_pe),)
            else:
                parent_sub = yield from self._take_from(
                    run, ctx, q.parent, q.parent_pe
                )
                if parent_sub is None:
                    step, start, size = -1, 0, 0
                    ancestors = ()
                else:
                    head, start, size, step = parent_sub
                    ancestors = ((head.calc, q.parent_pe), *head.ancestors)
            yield shm.access(ctx, 3)
            if size > 0:
                q.deposit(step, start, size, ancestors)
                if run.faults_active:
                    # ownership moved from this rank's claim into the
                    # queue (whole-group adoption covers the queue from
                    # here on)
                    run.release_claim(ctx.rank, step, start, size)
                run.record_level_chunk(q.level - 1, step, start, size, q.parent_pe)
                sub = q.take(child)
                if sub is not None and run.faults_active:
                    run.claim(ctx.rank, sub[3], sub[1], sub[2])
            else:
                shm.cells["global_done"] = 1
            yield shm.unlock(ctx)
            shm.release(ctx)
            yield shm.sync(ctx)
            if sub is not None:
                return sub
            # parent exhausted while we refilled: loop once more to
            # observe the drained flag under the lock, then terminate

    # ------------------------------------------------------------------
    def _worker_loop(
        self,
        run: _Run,
        ctx: RankCtx,
        leaf: _LocalQueue,
        child: int,
        finish_times,
        chunk_counts,
        iter_counts,
    ):
        sim = run.sim
        trace = run.trace
        claims_on = run.faults_active
        worker_name = ctx.name()
        n_chunks = 0
        n_iters = 0

        while True:
            # ---- stages 1-2: obtain a sub-chunk (refilling as needed) --
            t_obtain = sim.now
            sub = yield from self._take_from(run, ctx, leaf, child)
            if sub is None:
                if (
                    not run.faults_active
                    or run.executed_iterations >= run.workload.n
                ):
                    break
                # Failure-aware termination: the tier tree looks drained,
                # but a dead rank's reclaimed chunks may still be
                # re-deposited (the recovery clears ``global_done`` on
                # the target queue and its descendants).  Poll until
                # every iteration is accounted for somewhere.
                yield Timeout(run.costs.mpi.shm_poll_interval)
                continue

            # ---- stage 3: execute the sub-chunk -------------------------
            head, sub_start, sub_size, _step = sub
            if trace is not None and sim.now > t_obtain:
                trace.add(worker_name, t_obtain, sim.now, trace_mod.OBTAIN)
            # chunk-fetch wait feeds the ADAPT selectors along the
            # refill path (a separate channel from record() so AWF-D/E
            # stay bit-exact); only listening calculators are called
            obtain_wait = sim.now - t_obtain
            if head.calc.listens:
                head.calc.record_wait(child, obtain_wait)
            for calc, pe in head.ancestors:
                calc.record_wait(pe, obtain_wait)
            duration = run.exec_time(sub_start, sub_size, ctx.node, ctx.core)
            t0 = sim.now
            yield ComputeOnce(duration)  # jittered: unique per chunk, skip interning
            if trace is not None:
                trace.add(worker_name, t0, sim.now, trace_mod.COMPUTE)
            # runtime feedback flows to every listening level along the
            # refill path, leaf first — adaptive techniques (AWF-*, AF)
            # adapt at whichever level they are placed, not just the root
            if head.calc.listens:
                head.calc.record(child, sub_size, compute_time=duration)
            for calc, pe in head.ancestors:
                calc.record(pe, sub_size, compute_time=duration)
            # `head.local_step - 1` (not the `_step` captured at take
            # time) reproduces the original implementation's recording
            # bit-for-bit — the differential goldens pin it
            run.record_subchunk(head.local_step - 1, sub_start, sub_size, pe=ctx.rank)
            if claims_on:
                run.release_claim(ctx.rank, _step, sub_start, sub_size)
            n_chunks += 1
            n_iters += sub_size

        finish_times[ctx.rank] = sim.now
        chunk_counts[ctx.rank] = n_chunks
        iter_counts[ctx.rank] = n_iters

    # ------------------------------------------------------------------
    def _flat_worker_loop(
        self, run: _Run, ctx: RankCtx, queue: GlobalQueue,
        finish_times, chunk_counts, iter_counts,
    ):
        """Depth-1 stacks: every rank fetches from the global queue."""
        sim = run.sim
        trace = run.trace
        calc = queue.calc
        listens = calc.listens
        claims_on = run.faults_active
        n_chunks = 0
        n_iters = 0
        while True:
            t_obtain = sim.now
            if claims_on and run.orphans:
                # a dead rank's reclaimed range: adopt it (claim before
                # the bookkeeping access so a crash mid-adoption cannot
                # lose it a second time), then pay one window read
                step, start, size = run.orphans.pop(0)
                run.claim(ctx.rank, step, start, size)
                yield from queue.window.get(ctx, "step")
            else:
                step, start, size = yield from queue.next_chunk(ctx, pe=ctx.rank)
            if size <= 0:
                if not claims_on or run.executed_iterations >= run.workload.n:
                    break
                # orphans may still arrive while dead ranks await
                # detection: poll instead of exiting
                yield Timeout(run.costs.mpi.shm_poll_interval)
                continue
            if trace is not None and sim.now > t_obtain:
                trace.add(ctx.name(), t_obtain, sim.now, trace_mod.OBTAIN)
            if listens:
                calc.record_wait(ctx.rank, sim.now - t_obtain)
            run.record_chunk(step, start, size, pe=ctx.rank)
            duration = run.exec_time(start, size, ctx.node, ctx.core)
            t0 = sim.now
            yield ComputeOnce(duration)  # jittered: unique per chunk, skip interning
            if trace is not None:
                trace.add(ctx.name(), t0, sim.now, trace_mod.COMPUTE)
            if listens:
                calc.record(ctx.rank, size, compute_time=duration)
            run.record_subchunk(step, start, size, pe=ctx.rank)
            if claims_on:
                run.release_claim(ctx.rank, step, start, size)
            n_chunks += 1
            n_iters += size
        finish_times[ctx.rank] = sim.now
        chunk_counts[ctx.rank] = n_chunks
        iter_counts[ctx.rank] = n_iters
