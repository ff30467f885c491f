"""Rank-aggregated cohort engine for very large simulated MPI jobs.

The scalar engine of :mod:`repro.sim.engine` simulates every MPI
process (identified by its *rank*) as a Python generator and pays a
heap transaction per yield, which caps practical sweeps at a few
thousand ranks.  This module provides the ``engine="cohort"``
execution path: rank-symmetric spans of the event stream are condensed
into *macro events* on a :class:`~repro.sim.engine.CohortLane`, and
ranks whose futures are symmetric advance together as **cohorts** —
groups that split lazily only at divergence points (lock
contention winners vs losers, the serialised global-atomic FIFO,
chunk-dependent compute durations).  Times are simulated seconds
throughout; all indices are MPI ranks unless a name says node.

Two drivers replay the :class:`~repro.models.mpi_mpi.MpiMpiModel`
protocols: :func:`_run_flat` (the flat global-counter loop) and the tier
driver :func:`_run_tiers`, which walks the tier-group tree at depths 2-4
as the scalar ``_take_from`` recursion does.

Where the condensation is exact
-------------------------------
On *eligible* configurations the macro interpreter replays the scalar
event stream bit-for-bit — same chunk sets, same floating-point
accumulation order for every per-rank and per-window statistic, same
tie-breaking — because each macro is anchored at the simulated second
its scalar counterpart would land and ordered by ``(time, push time,
sequence)`` exactly like the scalar heap.  The only intentional
difference is ``RunResult.n_events``, which counts macro events (the
whole point is that there are far fewer of them).

Eligibility (checked by :func:`cohort_blockers`) requires the run to be
free of the divergence sources the interpreter does not condense:

* model: any :class:`~repro.models.mpi_mpi.MpiMpiModel` (mpi+mpi at
  any depth, flat-mpi, dCC);
* techniques: deterministic, non-adaptive, not PE-dependent, not
  pinned-per-PE, ``min_chunk == 1`` at every level the model composes
  (flat-mpi schedules the root level only, so its deeper levels are
  never checked);
* noise: no per-core speed scatter and no per-chunk jitter
  (``NO_NOISE``) — per-core homogeneity is what makes ranks symmetric;
* no active faults, ``placement="leader"``, no trace collection, no
  watchdog, zero locality-tier penalty knobs, and
  ``shm_lock_attempt > shm_unlock`` (the default cost model), which
  pins the lock-attempt-vs-release tie-break.

Anything else falls back to the scalar path **whole-run** (the
``engine="cohort"`` result is then trivially bit-exact, including
``n_events``).  There is no approximate mode: where cohorts would have
to guess, we split; where splitting cannot reproduce the scalar
stream, we fall back.

The split points in the fast path
---------------------------------
* **lock contention** — a tier group's ranks poll their shared
  window's lock; the winner splits off into the critical section while
  the losers stay a polling cohort whose jittered retries are
  fast-forwarded arithmetically (waits from the window's buffered
  poll-wait stream, consumed in the per-window chronological order the
  scalar engine would use);
* **refills** — the holder of a dry tier queue polls its parent's lock
  while it keeps its own; a root-tier refill queues on the RMA window's
  hidden FIFO unit, served in arrival order with plain arithmetic;
* **compute divergence** — chunk execution times differ by chunk, so
  ranks leave the compute phase at distinct macro times and re-enter
  the polling cohort individually.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.topology import leaf_slots
from repro.sim.engine import CohortLane

__all__ = ["cohort_blockers", "execute_cohort"]


class _Rank:
    """Per-rank accumulator mirroring :class:`repro.sim.engine.Process`.

    Overhead and compute seconds accrue term-by-term in each rank's
    protocol order, so the floating-point sums equal the scalar
    engine's per-process accounting exactly.
    """

    __slots__ = (
        "rank",
        "node",
        "core",
        "child",  # child index in the leaf queue (tier driver)
        "path",  # tier locks, leaf first: one tuple per leaf group
        "up",  # index in ``path`` of the queue the rank works on
        "compute_time",
        "overhead_time",
        "finish_time",
        "n_chunks",
        "n_iters",
        "attempts",
    )

    def __init__(self, rank: int, node: int, core: int):
        self.rank = rank
        self.node = node
        self.core = core
        self.child = 0
        self.path: Tuple["_TierLock", ...] = ()
        self.up = 0
        self.compute_time = 0.0
        self.overhead_time = 0.0
        self.finish_time = 0.0
        self.n_chunks = 0
        self.n_iters = 0
        #: failed+successful lock attempts of the *current* lock() call
        self.attempts = 0

    def __lt__(self, other: "_Rank") -> bool:
        """Rank-order tie-break for heap entries.

        Lock-heap entries are ``(attempt_time, rank)`` pairs.  The one
        systematic tie — every rank arriving at ``t=0`` with the same
        first attempt time — ordered by push order before, which *is*
        rank order, so nothing changes there.  Past it, attempt times
        are sums of independent jitter draws, so an exact float tie
        between distinct ranks is measure-zero — and on such a tie the
        scalar engine's own event sequence numbers would decide, an
        ordering neither representation can reproduce anyway.
        Breaking the (deterministic) tie by rank id keeps the heap
        total-ordered without paying a per-entry sequence counter.
        """
        return self.rank < other.rank

    # The metrics layer reads Process-like accessors via record_worker.
    @property
    def idle_time(self) -> float:
        """Timeout-kind idle seconds (always zero on eligible paths)."""
        return 0.0

    @property
    def wait_time(self) -> float:
        """Implicit blocked seconds, computed exactly like the scalar
        engine: ``elapsed - compute - overhead - idle`` clamped at 0."""
        elapsed = self.finish_time - 0.0
        return max(0.0, elapsed - self.compute_time - self.overhead_time - 0.0)


class _TierLock:
    """One tier queue's polled exclusive lock, cohort style.

    The polling ranks form a cohort represented as a heap of
    ``(attempt_time, rank)`` entries (ties break by rank id, see
    :meth:`_Rank.__lt__`).  While the lock is held the cohort's failed
    attempts are *deferred*; they are realised in per-window
    chronological order by ``fast_forward`` the moment the release
    time becomes known — every jitter draw, poll-wait accrual and
    attempt count lands exactly where the scalar engine puts it.  The
    winner splits off; the rest stay in the cohort.

    (A calendar-bucket queue keyed on ``int(attempt / width)`` with
    width below half the minimum poll step was prototyped here and
    lost: the extra per-attempt Python bytecode — bucket index math,
    dict probes, per-bucket sorts — costs more than the C-level
    ``heapreplace`` it replaces at the ~64-waiter heap sizes this
    engine sees.)
    """

    __slots__ = ("queue", "heap", "holder", "version", "check_time")

    def __init__(self, queue):
        self.queue = queue
        self.heap: List[Tuple[float, Any]] = []
        self.holder: Optional[_Rank] = None
        #: invalidates superseded CHECK macros (lazy cancellation)
        self.version = 0
        #: time of the currently scheduled CHECK, None when none/held
        self.check_time: Optional[float] = None


class _GlobalCounter:
    """The global queue's step counter behind the RMA window's hidden
    atomic-service unit, cohort style.

    Arrival order is the FIFO order (exactly the scalar ``Lock``
    semantics: release hands off at commit time, so service runs
    back-to-back).  Commits are therefore resolved with plain
    arithmetic; per-commit statistics accrue in commit order.  Each
    commit of fetch-and-add(step, +1) ends in an ``_M_RESOLVE`` macro.
    """

    __slots__ = ("lane", "window", "prices", "calc_cost", "busy", "waiting")

    def __init__(self, run, lane: CohortLane, window):
        self.lane = lane
        self.window = window
        #: node -> (latency, processing, remote): zero tier-penalty knobs
        #: price every rank of a node alike
        self.prices: Dict[int, Tuple[float, float, bool]] = {
            node: window.price_of(node * run.ppn)[:3]
            for node in range(run.cluster.n_nodes)
        }
        self.calc_cost = run.costs.chunk_calc
        self.busy = False
        self.waiting: List[_Rank] = []

    def fetch(self, state: _Rank, now: float) -> None:
        """``state`` issues its fetch at ``now``: the one-way latency,
        then the FIFO."""
        latency = self.prices[state.node][0]
        if latency:
            state.overhead_time += latency
            self.lane.schedule(now + latency, now, _M_GARRIVE, state)
        else:
            self.arrive(state, now)

    def arrive(self, state: _Rank, now: float) -> None:
        """Queue ``state``'s atomic on the unit FIFO at ``now``."""
        if self.busy:
            self.waiting.append(state)
        else:
            self.busy = True
            self.lane.schedule(
                now + self.prices[state.node][1], now, _M_GCOMMIT, state
            )

    def commit(self, state: _Rank, now: float) -> None:
        """Commit ``state``'s atomic at ``now`` (stats and counter in
        scalar order), then hand the unit to the next waiter."""
        latency, processing, remote = self.prices[state.node]
        window = self.window
        step = window.cells["step"]
        window.cells["step"] = step + 1
        window.n_atomics += 1
        if remote:
            window.n_remote_atomics += 1
        window.total_atomic_time_s += processing + 2.0 * latency
        state.overhead_time += processing
        if latency:
            state.overhead_time += latency
        cc = self.calc_cost
        state.overhead_time += cc
        self.lane.schedule(
            now + latency + cc, now + latency, _M_RESOLVE, (step, state)
        )
        if self.waiting:
            nxt = self.waiting.pop(0)
            self.lane.schedule(
                now + self.prices[nxt.node][1], now, _M_GCOMMIT, nxt
            )
        else:
            self.busy = False


# macro codes (payload layouts are driver-private)
_M_CHECK = 1
_M_TAKE = 2
_M_GARRIVE = 3
_M_GCOMMIT = 4
_M_RESOLVE = 5
_M_DEPOSIT = 6
_M_UNLOCK_TAKEN = 7
_M_UNLOCK_EXIT = 8
_M_UNLOCK_EMPTY = 9
_M_CDONE = 10


def cohort_blockers(model, run) -> List[str]:
    """Why this run cannot take the condensed fast path (empty = it can).

    Returns human-readable blocker descriptions; the run falls back to
    the scalar engine whole-run when any are present.  Pure check — no
    simulation state is touched.
    """
    from repro.models.mpi_mpi import MpiMpiModel

    blockers: List[str] = []
    levels = run.spec.levels
    if isinstance(model, MpiMpiModel):
        levels = levels[: model._levels(run)]  # flat-mpi builds the root only
    else:
        blockers.append(
            f"model {model.name!r} (fast path covers mpi+mpi, flat-mpi, dcc)"
        )
    for index, level in enumerate(levels):
        tech = level.technique
        if tech.adaptive or tech.pe_dependent:
            blockers.append(f"adaptive/PE-dependent {tech.name!r} at level {index}")
        if tech.pinned_per_pe:
            blockers.append(f"pinned STATIC at level {index}")
        if level.min_chunk > 1:
            blockers.append(f"min_chunk={level.min_chunk} at level {index}")
    if run.noise.per_core_sigma > 0.0 or run.noise.jitter_sigma > 0.0:
        blockers.append("execution-time noise (per-core scatter / chunk jitter)")
    if min(run.core_speed) != max(run.core_speed):
        blockers.append("heterogeneous core speeds")
    if run.faults_active:
        blockers.append("active fault model")
    if not (isinstance(run.placement, str) and run.placement == "leader"):
        blockers.append(f"placement={run.placement!r}")
    if run.trace is not None:
        blockers.append("trace collection")
    if run.max_sim_time is not None:
        blockers.append("engine watchdog (max_sim_time)")
    mpi = run.costs.mpi
    if (
        mpi.remote_numa_load_penalty != 0.0
        or mpi.remote_numa_atomic_penalty != 0.0
        or mpi.cross_socket_penalty != 0.0
    ):
        blockers.append("non-zero locality-tier penalty knobs")
    if not mpi.shm_lock_attempt > mpi.shm_unlock:
        blockers.append("shm_lock_attempt <= shm_unlock (tie-break unpinned)")
    if mpi.shm_poll_interval < 0.0:
        blockers.append("negative shm_poll_interval (poll steps must advance)")
    return blockers


def execute_cohort(model, run) -> None:
    """Execute ``run`` under the rank-aggregated cohort engine.

    Entry point used by :meth:`repro.models.base.ExecutionModel.run`
    for ``engine="cohort"``.  Eligible configurations go through the
    macro interpreter (bit-exact except ``n_events``), through the tier
    driver when the model has tier queues.  Everything else runs
    ``model._execute`` unchanged, so the result — including
    ``n_events`` — is the scalar result.  Both paths build their world
    and queues with the model's own :meth:`setup
    <repro.models.mpi_mpi.MpiMpiModel.setup>`.
    """
    if cohort_blockers(model, run):
        model._execute(run)
        return
    world, queue, local_queues, plan = model.setup(run)
    # no rank processes run here, so the world builds no rank contexts
    slots = enumerate(world.placement.slots)
    ranks = [_Rank(rank, node, core) for rank, (node, _s, _n, core) in slots]
    if local_queues:
        groups = world.placement.tier_groups(model._tiers(run))
        _run_tiers(run, queue, local_queues, groups, ranks)
    else:
        _run_flat(run, queue, ranks)
    for state in ranks:
        run.record_worker(
            name=f"rank{state.rank}(n{state.node}.c{state.core})",
            node=state.node,
            finish_time=state.finish_time,
            process=state,
            n_chunks=state.n_chunks,
            n_iterations=state.n_iters,
        )
    model._collect_counters(run, queue, local_queues, plan)


# ---------------------------------------------------------------------------
# depth-1 driver: one serialised counter, no tier locks
# ---------------------------------------------------------------------------


def _run_flat(run, queue, ranks: List[_Rank]) -> None:
    """Replay the flat protocol of
    :meth:`repro.models.mpi_mpi.MpiMpiModel._flat_worker_loop`
    (mpi+mpi at depth 1, flat-mpi and dCC) as macro events.

    Chunk-calculation overhead and latency accrue per rank in protocol
    order; records are emitted at their anchored macro times.
    """
    resolve = queue.resolve_step
    lane = CohortLane()
    counter = _GlobalCounter(run, lane, queue.window)
    macros = 0

    for state in ranks:  # t=0 spawn kick, rank order = scalar seq order
        counter.fetch(state, 0.0)

    while len(lane):
        time, _push, _seq, code, payload = lane.pop()
        macros += 1
        if code == _M_GARRIVE:
            counter.arrive(payload, time)
        elif code == _M_GCOMMIT:
            counter.commit(payload, time)
        elif code == _M_RESOLVE:
            step, state = payload
            step, start, size = resolve(step)
            if size <= 0:
                state.finish_time = time
                continue
            run.record_chunk(step, start, size, pe=state.rank)
            duration = run.exec_time(start, size, state.node, state.core)
            state.compute_time += duration
            lane.schedule(time + duration, time, _M_CDONE, (step, start, size, state))
        elif code == _M_CDONE:
            step, start, size, state = payload
            run.record_subchunk(step, start, size, pe=state.rank)
            state.n_chunks += 1
            state.n_iters += size
            counter.fetch(state, time)
    run.sim.n_events_processed += macros


# ---------------------------------------------------------------------------
# tier driver: polled tier queues, refilled down the tier-group tree
# ---------------------------------------------------------------------------


def _run_tiers(run, queue, local_queues, groups, ranks: List[_Rank]) -> None:
    """Cohort driver for the mpi+mpi tier queues (depths 2-4).

    Replays the full protocol of
    :meth:`repro.models.mpi_mpi.MpiMpiModel._take_from` /
    ``_worker_loop`` as macro events: lock polling (fast-forwarded
    cohorts), critical sections, refills up the tier tree, deposits,
    takes and compute — anchored at the simulated seconds the scalar
    events would land.  ``local_queues`` holds one queue per group of
    ``groups`` in tree order, parents first.  The takes, refills and the
    drained flag are the scalar engine's own
    :class:`~repro.core.workqueue.TierQueue` steps.
    """
    mpi = run.costs.mpi
    A = mpi.shm_lock_attempt  # per-attempt message cost (seconds)
    ACC3 = 3 * mpi.shm_access
    U = mpi.shm_unlock
    S = mpi.shm_win_sync

    lane = CohortLane()
    counter = _GlobalCounter(run, lane, queue.window)
    #: queue key -> its lock and its ancestors' locks, leaf first
    paths: Dict[Any, Tuple[_TierLock, ...]] = {}
    for key, lq in local_queues.items():
        paths[key] = (_TierLock(lq),) + paths.get(lq.group.parent, ())
    for rank, (key, child) in leaf_slots(groups).items():
        state = ranks[rank]
        state.path = paths[key]
        state.child = child
    live = len(ranks)

    def child_of(state: _Rank) -> int:
        """Child index in the current queue: leaf slot or refilled queue."""
        up = state.up
        return state.path[up - 1].queue.parent_pe if up else state.child

    def arrive(state: _Rank, now: float) -> None:
        """Rank enters ``shm.lock``: join the queue's polling cohort."""
        nl = state.path[state.up]
        attempt = now + A
        heapq.heappush(nl.heap, (attempt, state))
        if nl.holder is None and (nl.check_time is None or attempt < nl.check_time):
            nl.version += 1
            nl.check_time = attempt
            lane.schedule(attempt, now, _M_CHECK, (nl, nl.version))

    def fast_forward(nl: _TierLock, released: float) -> None:
        """Release at ``released``: realise the cohort's deferred failed
        attempts (chronological per-window order), then schedule the
        winner check at the first strictly-later attempt."""
        # The hottest loop in the engine (tens of millions of deferred
        # attempts at 64k ranks): locals, the window's own buffered
        # poll-wait stream (the values the scalar poller would draw),
        # two-element heap entries and a hoisted emptiness check cut the
        # per-attempt cost without touching a single accrual order.
        # heapreplace keeps the heap size invariant, so `heap` truthiness
        # is loop-invariant and tested once.
        heap = nl.heap
        shm = nl.queue.shm
        replace = heapq.heapreplace
        next_wait = shm.next_poll_wait
        poll_wait = shm.total_poll_wait
        if heap:
            while True:
                attempt, state = heap[0]
                if attempt > released:
                    break
                state.attempts += 1
                wait = next_wait()
                poll_wait += wait
                state.overhead_time += A
                state.overhead_time += wait
                replace(heap, (attempt + wait + A, state))
        shm.total_poll_wait = poll_wait
        nl.holder = None
        if heap:
            first = heap[0][0]
            nl.version += 1
            nl.check_time = first
            # push_time = attempt - A: the scalar engine pushed the
            # winning attempt's event when its poll wait ended
            lane.schedule(first, first - A, _M_CHECK, (nl, nl.version))
        else:
            nl.check_time = None

    for state in ranks:  # t=0 spawn kick in rank (spawn) order
        arrive(state, 0.0)

    macros = 0
    while len(lane):
        now, _push, _lseq, code, payload = lane.pop()
        macros += 1
        if code == _M_CHECK:
            nl, version = payload
            if version != nl.version or nl.holder is not None:
                continue  # superseded by a later arrival or acquisition
            _attempt, state = heapq.heappop(nl.heap)
            state.overhead_time += A
            state.attempts += 1
            nl.queue.shm.record_acquisition(state.attempts)
            state.attempts = 0
            nl.holder = state
            nl.check_time = None
            state.overhead_time += ACC3
            lane.schedule(now + ACC3, now, _M_TAKE, state)
        elif code == _M_TAKE:
            state = payload
            lq = state.path[state.up].queue
            sub = lq.take(child_of(state))
            if sub is not None:
                state.overhead_time += U
                lane.schedule(now + U, now, _M_UNLOCK_TAKEN, (state, sub))
            elif lq.drained:
                state.overhead_time += U
                lane.schedule(now + U, now, _M_UNLOCK_EXIT, state)
            elif lq.parent is not None:  # the fastest rank refills: climb
                state.up += 1
                arrive(state, now)
            else:  # a root-tier queue refills from the global queue
                counter.fetch(state, now)
        elif code == _M_GARRIVE:
            counter.arrive(payload, now)
        elif code == _M_GCOMMIT:
            counter.commit(payload, now)
        elif code == _M_RESOLVE:
            step, state = payload
            links = ((queue.calc, state.path[state.up].queue.parent_pe),)
            state.overhead_time += ACC3
            lane.schedule(
                now + ACC3, now, _M_DEPOSIT,
                (state, queue.resolve_step(step), links),
            )
        elif code == _M_DEPOSIT:
            state, (step, start, size), ancestors = payload
            lq = state.path[state.up].queue
            sub = lq.refill(child_of(state), step, start, size, ancestors)
            state.overhead_time += U
            if size > 0:
                run.record_level_chunk(lq.level - 1, step, start, size, lq.parent_pe)
            if sub is not None:
                lane.schedule(now + U, now, _M_UNLOCK_TAKEN, (state, sub))
            else:
                lane.schedule(now + U, now, _M_UNLOCK_EMPTY, state)
        elif code == _M_UNLOCK_TAKEN:
            state, sub = payload
            up = state.up
            nl = state.path[up]
            fast_forward(nl, now)
            nl.queue.shm.n_syncs += 1
            state.overhead_time += S
            head, sub_start, size, step = sub
            if up:
                # the parent's sub-chunk refills the child queue: the
                # parent's win_sync, then the child's 3-access read
                state.up = up - 1
                links = ((head.calc, state.path[up - 1].queue.parent_pe),)
                state.overhead_time += ACC3
                lane.schedule(
                    now + S + ACC3, now + S, _M_DEPOSIT,
                    (state, (step, sub_start, size), links + head.ancestors),
                )
            else:  # win_sync then the chunk's compute span
                duration = run.exec_time(sub_start, size, state.node, state.core)
                state.compute_time += duration
                lane.schedule(now + S + duration, now + S, _M_CDONE, (state, sub))
        elif code == _M_UNLOCK_EXIT:
            state = payload
            up = state.up
            fast_forward(state.path[up], now)
            if up:  # the parent is drained: the child's read finds so
                state.up = up - 1
                state.overhead_time += ACC3
                lane.schedule(now + ACC3, now, _M_DEPOSIT, (state, (-1, 0, 0), ()))
            else:
                state.finish_time = now
                live -= 1
        elif code == _M_UNLOCK_EMPTY:
            state = payload
            nl = state.path[state.up]
            fast_forward(nl, now)
            nl.queue.shm.n_syncs += 1
            state.overhead_time += S
            arrive(state, now + S)
        elif code == _M_CDONE:
            state, sub = payload
            head, sub_start, size, _step = sub
            run.record_subchunk(head.local_step - 1, sub_start, size, pe=state.rank)
            state.n_chunks += 1
            state.n_iters += size
            arrive(state, now)
    if live:
        raise RuntimeError(
            f"cohort engine deadlock: {live} rank(s) never terminated"
        )
    run.sim.n_events_processed += macros
