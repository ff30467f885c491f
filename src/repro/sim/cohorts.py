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

* model: ``mpi+mpi`` at depth 1-2, or ``dcc`` (any depth it accepts);
* techniques: deterministic, non-adaptive, not PE-dependent, not
  pinned-per-PE, ``min_chunk == 1`` at every level;
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
* **global-queue serialisation** — refills queue on the RMA window's
  hidden FIFO unit; service is resolved in arrival order with plain
  arithmetic instead of generator resumes;
* **compute divergence** — chunk execution times differ by chunk, so
  ranks leave the compute phase at distinct macro times and re-enter
  the polling cohort individually.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

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
        "child",
        "compute_time",
        "overhead_time",
        "finish_time",
        "n_chunks",
        "n_iters",
        "attempts",
    )

    def __init__(self, rank: int, node: int, core: int, child: int):
        self.rank = rank
        self.node = node
        self.core = core
        self.child = child
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


class _NodeLock:
    """One tier group's polled exclusive lock, cohort style.

    The polling ranks form a cohort represented as a heap of
    ``(attempt_time, rank)`` entries (ties break by rank id, see
    :meth:`_Rank.__lt__`).  While the lock is held the cohort's failed
    attempts are *deferred*; they are realised in per-window
    chronological order by :meth:`fast_forward` the moment the release
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

    __slots__ = ("key", "shm", "heap", "holder", "version", "check_time")

    def __init__(self, key, shm):
        self.key = key
        self.shm = shm
        self.heap: List[Tuple[float, Any]] = []
        self.holder: Optional[_Rank] = None
        #: invalidates superseded CHECK macros (lazy cancellation)
        self.version = 0
        #: time of the currently scheduled CHECK, None when none/held
        self.check_time: Optional[float] = None


class _GlobalFifo:
    """The RMA window's hidden atomic-service unit, cohort style.

    Arrival order is the FIFO order (exactly the scalar ``Lock``
    semantics: release hands off at commit time, so service runs
    back-to-back).  Commits are therefore resolved with plain
    arithmetic; per-commit statistics accrue in commit order.
    """

    __slots__ = ("busy", "queue")

    def __init__(self):
        self.busy = False
        self.queue: List[Any] = []


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
    blockers: List[str] = []
    depth = run.spec.depth
    if model.name == "mpi+mpi":
        if depth > 2:
            blockers.append(
                f"mpi+mpi depth {depth} (fast path covers depth 1-2)"
            )
    elif model.name != "dcc":
        blockers.append(f"model {model.name!r} (fast path covers mpi+mpi, dcc)")
    for index, level in enumerate(run.spec.levels):
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
    macro interpreter (bit-exact except ``n_events``); everything else
    runs ``model._execute`` unchanged, so the result — including
    ``n_events`` — is the scalar result.  Both paths build their world
    and queues with the model's own :meth:`setup
    <repro.models.mpi_mpi.MpiMpiModel.setup>`.
    """
    if cohort_blockers(model, run):
        model._execute(run)
        return
    world, queue, local_queues, plan = model.setup(run)
    ranks = [
        _Rank(ctx.rank, ctx.node, ctx.core, ctx.local_rank)
        for ctx in world.contexts
    ]
    if local_queues:
        _run_depth2(run, queue, local_queues, ranks)
    else:
        _run_flat(run, queue, ranks)
    for state, ctx in zip(ranks, world.contexts):
        run.record_worker(
            name=ctx.name(),
            node=ctx.node,
            finish_time=state.finish_time,
            process=state,
            n_chunks=state.n_chunks,
            n_iterations=state.n_iters,
        )
    model._collect_counters(run, queue, local_queues, plan)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


def _commit_atomic(window, remote: bool, processing: float, latency: float) -> int:
    """Commit one fetch-and-add(step, +1): stats + counter, scalar order."""
    old = window.cells["step"]
    window.cells["step"] = old + 1
    window.n_atomics += 1
    if remote:
        window.n_remote_atomics += 1
    window.total_atomic_time_s += processing + 2.0 * latency
    return old


def _fifo_arrive(lane, fifo: _GlobalFifo, when: float, payload) -> None:
    """Queue one atomic on the unit FIFO at ``when`` (arrival order)."""
    if fifo.busy:
        fifo.queue.append(payload)
    else:
        fifo.busy = True
        # payload[0] is the requesting rank's processing time
        lane.schedule(when + payload[0], when, _M_GCOMMIT, payload)


def _fifo_release(lane, fifo: _GlobalFifo, commit: float) -> None:
    """Hand the unit to the next FIFO waiter at commit time."""
    if fifo.queue:
        nxt = fifo.queue.pop(0)
        lane.schedule(commit + nxt[0], commit, _M_GCOMMIT, nxt)
    else:
        fifo.busy = False


# ---------------------------------------------------------------------------
# depth-1 driver: one serialised counter, no tier locks
# ---------------------------------------------------------------------------


def _run_flat(run, queue, ranks: List[_Rank]) -> None:
    """Replay the flat protocol of
    :meth:`repro.models.mpi_mpi.MpiMpiModel._flat_worker_loop`
    (mpi+mpi at depth 1, and dCC) as macro events.

    Chunk-calculation overhead and latency accrue per rank in protocol
    order; records are emitted at their anchored macro times.
    """
    window = queue.window
    resolve = queue.resolve_step
    lane = CohortLane()
    fifo = _GlobalFifo()
    profiles = {
        node: window.price_of(node * run.ppn)[:3]
        for node in range(run.cluster.n_nodes)
    }
    cc = run.costs.chunk_calc
    macros = 0

    def fetch(state: _Rank, now: float) -> None:
        latency, processing, remote = profiles[state.node]
        if latency:
            state.overhead_time += latency
            lane.schedule(now + latency, now, _M_GARRIVE, (processing, state))
        else:
            _fifo_arrive(lane, fifo, now, (processing, state))

    for state in ranks:  # t=0 spawn kick, rank order = scalar seq order
        fetch(state, 0.0)

    while len(lane):
        time, _push, _seq, code, payload = lane.pop()
        macros += 1
        if code == _M_GARRIVE:
            _fifo_arrive(lane, fifo, time, payload)
        elif code == _M_GCOMMIT:
            processing, state = payload
            latency, _proc, remote = profiles[state.node]
            step = _commit_atomic(window, remote, processing, latency)
            state.overhead_time += processing
            if latency:
                state.overhead_time += latency
            state.overhead_time += cc
            lane.schedule(
                time + latency + cc, time + latency, _M_RESOLVE, (step, state)
            )
            _fifo_release(lane, fifo, time)
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
            fetch(state, time)
    run.sim.n_events_processed += macros


# ---------------------------------------------------------------------------
# depth-2 driver: per-node polled queues over the global counter
# ---------------------------------------------------------------------------


def _run_depth2(run, queue, local_queues, ranks: List[_Rank]) -> None:
    """Cohort driver for the paper's two-level mpi+mpi configuration.

    Replays the full protocol of
    :meth:`repro.models.mpi_mpi.MpiMpiModel._take_from` /
    ``_worker_loop`` as macro events: lock polling (fast-forwarded
    cohorts), critical sections, global refills through the serialised
    RMA unit, deposits, takes and compute — anchored at the simulated
    seconds the scalar events would land.  The takes, refills and the
    drained flag are the scalar engine's own
    :class:`~repro.core.workqueue.TierQueue` steps.
    """
    mpi = run.costs.mpi
    A = mpi.shm_lock_attempt  # per-attempt message cost (seconds)
    ACC3 = 3 * mpi.shm_access
    U = mpi.shm_unlock
    S = mpi.shm_win_sync
    CC = run.costs.chunk_calc

    lane = CohortLane()
    fifo = _GlobalFifo()
    locks: Dict[int, _NodeLock] = {}
    profiles: Dict[int, Tuple[float, float, bool]] = {}
    for node in range(run.cluster.n_nodes):
        locks[node] = _NodeLock(node, local_queues[node].shm)
        profiles[node] = queue.window.price_of(node * run.ppn)[:3]
    live = len(ranks)

    def arrive(state: _Rank, now: float) -> None:
        """Rank enters ``shm.lock``: join the node's polling cohort."""
        nl = locks[state.node]
        attempt = now + A
        heapq.heappush(nl.heap, (attempt, state))
        if nl.holder is None and (nl.check_time is None or attempt < nl.check_time):
            nl.version += 1
            nl.check_time = attempt
            lane.schedule(attempt, now, _M_CHECK, (nl, nl.version))

    def fast_forward(nl: _NodeLock, released: float) -> None:
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
        shm = nl.shm
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

    def begin_exec(state: _Rank, sub, now: float) -> None:
        """Post-unlock tail: win_sync then the chunk's compute span."""
        nl = locks[state.node]
        nl.shm.n_syncs += 1
        state.overhead_time += S
        _head, sub_start, size, _step = sub
        duration = run.exec_time(sub_start, size, state.node, state.core)
        state.compute_time += duration
        lane.schedule(now + S + duration, now + S, _M_CDONE, (state, sub))

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
            nl.shm.record_acquisition(state.attempts)
            state.attempts = 0
            nl.holder = state
            nl.check_time = None
            state.overhead_time += ACC3
            lane.schedule(now + ACC3, now, _M_TAKE, state)
        elif code == _M_TAKE:
            state = payload
            lq = local_queues[state.node]
            sub = lq.take(state.child)
            if sub is not None:
                state.overhead_time += U
                lane.schedule(now + U, now, _M_UNLOCK_TAKEN, (state, sub))
            elif lq.drained:
                state.overhead_time += U
                lane.schedule(now + U, now, _M_UNLOCK_EXIT, state)
            else:  # this rank is currently the fastest: refill
                latency, processing, _remote = profiles[state.node]
                if latency:
                    state.overhead_time += latency
                    lane.schedule(
                        now + latency, now, _M_GARRIVE, (processing, state)
                    )
                else:
                    _fifo_arrive(lane, fifo, now, (processing, state))
        elif code == _M_GARRIVE:
            _fifo_arrive(lane, fifo, now, payload)
        elif code == _M_GCOMMIT:
            processing, state = payload
            latency, _proc, remote = profiles[state.node]
            step = _commit_atomic(queue.window, remote, processing, latency)
            state.overhead_time += processing
            if latency:
                state.overhead_time += latency
            state.overhead_time += CC
            lane.schedule(
                now + latency + CC, now + latency, _M_RESOLVE, (step, state)
            )
            _fifo_release(lane, fifo, now)
        elif code == _M_RESOLVE:
            step, state = payload
            resolved = queue.resolve_step(step)
            state.overhead_time += ACC3
            lane.schedule(now + ACC3, now, _M_DEPOSIT, (state, resolved))
        elif code == _M_DEPOSIT:
            state, (step, start, size) = payload
            sub = local_queues[state.node].refill(
                state.child, step, start, size, ((queue.calc, state.node),)
            )
            state.overhead_time += U
            if size > 0:
                run.record_level_chunk(0, step, start, size, state.node)
                lane.schedule(now + U, now, _M_UNLOCK_TAKEN, (state, sub))
            else:
                lane.schedule(now + U, now, _M_UNLOCK_EMPTY, state)
        elif code == _M_UNLOCK_TAKEN:
            state, sub = payload
            fast_forward(locks[state.node], now)
            begin_exec(state, sub, now)
        elif code == _M_UNLOCK_EXIT:
            state = payload
            fast_forward(locks[state.node], now)
            state.finish_time = now
            live -= 1
        elif code == _M_UNLOCK_EMPTY:
            state = payload
            nl = locks[state.node]
            fast_forward(nl, now)
            nl.shm.n_syncs += 1
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
