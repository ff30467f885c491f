"""The simulated OpenMP thread team.

One :class:`OmpTeam` models the threads of one MPI process in the
MPI+OpenMP execution model.  Threads are persistent ("hot team"): the
fork cost is paid once, and each worksharing loop is a *phase*
broadcast to the team.  The master thread is the calling rank process
itself (thread 0); it participates in every worksharing loop.

Three execution styles:

* :meth:`parallel_for` — one chunk's worksharing loop ending in the
  **implicit barrier** (the paper's Fig. 2 behaviour);
* :meth:`parallel_for` with ``nowait=True`` — threads leave the loop as
  soon as they run out of sub-chunks;
* :meth:`parallel_region_selffetch` — the paper's Section 6 future-work
  variant: a single region in which every thread fetches new MPI chunks
  itself under a serialising mutex (``MPI_THREAD_SERIALIZED``-style).

All times (``body_time`` results, fork, grab and barrier costs) are
simulated seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

import numpy as np

from repro.cluster.costs import CostModel
from repro.core.technique_base import ChunkCalculator, ceil_div
from repro.core.techniques import get_technique
from repro.core import trace as trace_mod
from repro.sim.engine import Process, Simulator
from repro.sim.primitives import Command, Compute, ComputeOnce, Overhead, SimEvent
from repro.sim.resources import Barrier, Lock
from repro.somp.schedule import ScheduleSpec

#: body_time(start, size, thread_id) -> simulated seconds
BodyTimeFn = Callable[[int, int, int], float]
#: fetch() -> generator yielding commands, returning (start, size) or None
FetchFn = Callable[[], Generator[Command, Any, Optional[tuple]]]


@dataclass
class _Phase:
    """One worksharing loop instance, shared by all threads."""

    index: int
    start: int
    size: int
    spec: ScheduleSpec
    body_time: BodyTimeFn
    nowait: bool
    barrier: Optional[Barrier]
    calc: Optional[ChunkCalculator] = None
    #: next scheduling step (for calc-based and guided schedules)
    counter: int = 0
    #: iterations handed out so far
    scheduled: int = 0
    #: iterations finished so far
    executed: int = 0
    done_event: Optional[SimEvent] = None
    #: per-thread sub-chunk counts (stats)
    grabs: Dict[int, int] = field(default_factory=dict)
    executed_per_thread: Dict[int, int] = field(default_factory=dict)

    # -- self-fetch mode state ----------------------------------------
    fetch_fn: Optional[FetchFn] = None
    fetch_mutex: Optional[Lock] = None
    global_done: bool = False
    n_fetches: int = 0


class OmpTeam:
    """A persistent team of simulated OpenMP threads.

    Parameters
    ----------
    sim:
        The simulator (threads are spawned on it immediately).
    n_threads:
        Team size, master included.
    costs:
        Full cost model (``omp`` table + ``chunk_calc``).
    name:
        Prefix for thread process names (e.g. ``"n3"`` -> ``"n3.t5"``).
    weights:
        Only needed for the ``wf`` extension schedule.
    trace:
        Optional :class:`repro.core.trace.Trace` to record Gantt data.
    barrier_penalty:
        Extra cost added to every implicit barrier — the locality-tier
        surcharge of a team whose threads span several NUMA domains or
        sockets (barrier cache lines bounce across the boundary).  Zero
        (the default) reproduces the distance-blind barrier bit-exactly.
    """

    def __init__(
        self,
        sim: Simulator,
        n_threads: int,
        costs: CostModel,
        name: str = "team",
        weights: Optional[np.ndarray] = None,
        trace: Optional[trace_mod.Trace] = None,
        barrier_penalty: float = 0.0,
    ):
        if n_threads < 1:
            raise ValueError(f"team needs >= 1 thread, got {n_threads}")
        self.sim = sim
        self.n_threads = n_threads
        self.costs = costs
        self.barrier_penalty = barrier_penalty
        self.name = name
        self.weights = weights
        self.trace = trace
        self._gate = sim.event(f"{name}.phase0")
        self._phase_index = 0
        self._forked = False
        self._shutdown = False
        self.threads: List[Process] = [
            sim.spawn(self._thread_main(tid), name=f"{name}.t{tid}")
            for tid in range(1, n_threads)
        ]
        #: completed phases, for stats inspection
        self.phases: List[_Phase] = []
        #: the simulated process acting as this team's thread 0, set by
        #: the execution model for per-thread stats: the rank process
        #: for the node's first team, a nested-worksharing driver
        #: process for every other team
        self.driver_process: Optional[Process] = None

    # ------------------------------------------------------------------
    # master-side API (call with ``yield from`` inside a rank process)
    # ------------------------------------------------------------------
    def parallel_for(
        self,
        start: int,
        size: int,
        spec: ScheduleSpec,
        body_time: BodyTimeFn,
        nowait: bool = False,
    ):
        """Execute ``[start, start+size)`` across the team.

        Returns the :class:`_Phase` (for stats).  With the default
        ``nowait=False``, returns only after the implicit barrier — all
        iterations are complete.  With ``nowait=True``, returns when the
        *master's own* work is done; use :meth:`quiesce` to wait for
        stragglers.
        """
        if self._shutdown:
            raise RuntimeError("team already shut down")
        if not self._forked:
            # first parallel region pays the fork
            yield Overhead(self.costs.omp.fork)
            self._forked = True
        phase = self._make_phase(start, size, spec, body_time, nowait)
        gate, self._gate = self._gate, self.sim.event(
            f"{self.name}.phase{phase.index + 1}"
        )
        gate.trigger(phase)
        yield from self._workshare(phase, tid=0)
        self.phases.append(phase)
        return phase

    def parallel_region_selffetch(
        self,
        spec: ScheduleSpec,
        body_time: BodyTimeFn,
        fetch: FetchFn,
    ):
        """The ``nowait`` future-work variant (paper Sec. 6).

        A single parallel region: whenever the shared chunk runs dry,
        the first thread to notice acquires the fetch mutex and issues
        the MPI call itself.  One final barrier ends the region.
        Returns the phase for stats (``n_fetches`` etc.).
        """
        if self._shutdown:
            raise RuntimeError("team already shut down")
        if not self._forked:
            yield Overhead(self.costs.omp.fork)
            self._forked = True
        phase = self._make_phase(0, 0, spec, body_time, nowait=False)
        phase.fetch_fn = fetch
        phase.fetch_mutex = Lock(self.sim, name=f"{self.name}.fetch-mutex")
        phase.calc = None  # created per fetched chunk
        gate, self._gate = self._gate, self.sim.event(
            f"{self.name}.phase{phase.index + 1}"
        )
        gate.trigger(phase)
        yield from self._workshare_selffetch(phase, tid=0)
        self.phases.append(phase)
        return phase

    def quiesce(self, phase: _Phase):
        """Wait until every iteration of a nowait phase has executed."""
        if phase.executed >= phase.size:
            return
        if phase.done_event is None:
            phase.done_event = self.sim.event(f"{self.name}.quiesce{phase.index}")
        yield phase.done_event

    def shutdown(self) -> None:
        """Terminate the worker threads (idempotent)."""
        if not self._shutdown:
            self._shutdown = True
            self._gate.trigger(None)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_phase(
        self, start: int, size: int, spec: ScheduleSpec, body_time: BodyTimeFn,
        nowait: bool,
    ) -> _Phase:
        calc = self._make_calc(spec, size)
        barrier = None if nowait else Barrier(
            self.sim, self.n_threads, name=f"{self.name}.bar{self._phase_index}"
        )
        phase = _Phase(
            index=self._phase_index,
            start=start,
            size=size,
            spec=spec,
            body_time=body_time,
            nowait=nowait,
            barrier=barrier,
            calc=calc,
        )
        self._phase_index += 1
        return phase

    def _make_calc(self, spec: ScheduleSpec, size: int) -> Optional[ChunkCalculator]:
        """Calculator for extension schedules (None for the standard three)."""
        if spec.kind in ("static", "dynamic", "guided"):
            return None
        technique = {
            "tss": "TSS",
            "fac2": "FAC2",
            "tfss": "TFSS",
            "wf": "WF",
            "random": "RND",
        }[spec.kind]
        return get_technique(technique).make(
            size, self.n_threads, weights=self.weights
        )

    def _thread_main(self, tid: int):
        gate = self._gate
        while True:
            phase = yield gate
            gate = self._gate  # next phase's gate (may already be armed)
            if phase is None:
                return
            if phase.fetch_fn is not None:
                yield from self._workshare_selffetch(phase, tid)
            else:
                yield from self._workshare(phase, tid)

    # -- sub-chunk grabbing ------------------------------------------------
    def _grab(self, phase: _Phase, tid: int) -> Optional[tuple]:
        """Take the next sub-chunk (pure state update; costs charged by
        the caller).  Returns (abs_start, size) or None."""
        remaining = phase.size - phase.scheduled
        if remaining <= 0:
            return None
        spec = phase.spec
        if phase.calc is not None:
            size = phase.calc.size_at(phase.counter, pe=tid)
            if size <= 0:
                return None
        elif spec.kind == "dynamic":
            size = spec.chunk or 1
        elif spec.kind == "guided":
            size = max(spec.chunk or 1, ceil_div(remaining, self.n_threads))
        else:  # pragma: no cover - static is handled by _static_slices
            raise AssertionError("static schedules never grab")
        size = min(size, remaining)
        abs_start = phase.start + phase.scheduled
        phase.scheduled += size
        phase.counter += 1
        phase.grabs[tid] = phase.grabs.get(tid, 0) + 1
        return abs_start, size

    def _static_slices(self, phase: _Phase, tid: int) -> List[tuple]:
        """Pinned iteration blocks of thread ``tid`` for schedule(static[,k])."""
        n, t = phase.size, self.n_threads
        if phase.spec.chunk is None:
            base, rem = divmod(n, t)
            # contiguous partition: first `rem` threads get base+1
            start = tid * base + min(tid, rem)
            size = base + (1 if tid < rem else 0)
            return [(phase.start + start, size)] if size > 0 else []
        k = phase.spec.chunk
        blocks = []
        for block_start in range(tid * k, n, t * k):
            size = min(k, n - block_start)
            if size > 0:
                blocks.append((phase.start + block_start, size))
        return blocks

    def _retire(
        self, phase: _Phase, tid: int, size: int, duration: float, t0: float
    ) -> None:
        """Bookkeeping after thread ``tid`` computed a ``size``-iteration
        sub-chunk for ``duration`` seconds starting at ``t0``.

        The worksharing loops yield the compute delay themselves (one
        generator frame per event) and call this once it has elapsed.
        """
        phase.executed += size
        phase.executed_per_thread[tid] = (
            phase.executed_per_thread.get(tid, 0) + size
        )
        if phase.calc is not None and phase.calc.listens:
            phase.calc.record(tid, size, compute_time=duration)
        if self.trace is not None:
            self.trace.add(
                f"{self.name}.t{tid}", t0, self.sim.now, trace_mod.COMPUTE
            )
        if phase.executed >= phase.size and phase.done_event is not None:
            phase.done_event.trigger()

    def _workshare(self, phase: _Phase, tid: int):
        sim = self.sim
        body_time = phase.body_time
        omp = self.costs.omp
        yield Overhead(omp.worksharing_init)
        if phase.spec.pinned:
            for abs_start, size in self._static_slices(phase, tid):
                phase.grabs[tid] = phase.grabs.get(tid, 0) + 1
                duration = body_time(abs_start, size, tid)
                t0 = sim.now
                yield ComputeOnce(duration)  # jittered: unique per chunk
                self._retire(phase, tid, size, duration, t0)
        else:
            # atomic capture of the shared counter (+ chunk formula
            # evaluation for the calculator-based schedules)
            cost = omp.atomic
            if phase.calc is not None:
                cost += self.costs.chunk_calc
            grab = Overhead(cost)
            while True:
                yield grab
                grabbed = self._grab(phase, tid)
                if grabbed is None:
                    break
                abs_start, size = grabbed
                duration = body_time(abs_start, size, tid)
                t0 = sim.now
                yield ComputeOnce(duration)  # jittered: unique per chunk
                self._retire(phase, tid, size, duration, t0)
        if not phase.nowait:
            yield from self._barrier_wait(phase, tid)

    def _barrier_wait(self, phase: _Phase, tid: int):
        """The implicit end-of-worksharing barrier (paper Fig. 2)."""
        yield Overhead(
            self.costs.omp.barrier_time(self.n_threads) + self.barrier_penalty
        )
        t0 = self.sim.now
        yield from phase.barrier.wait()
        if self.trace is not None and self.sim.now > t0:
            self.trace.add(
                f"{self.name}.t{tid}", t0, self.sim.now, trace_mod.SYNC
            )

    # -- self-fetch (nowait future-work) region ---------------------------
    def _workshare_selffetch(self, phase: _Phase, tid: int):
        omp = self.costs.omp
        yield Overhead(omp.worksharing_init)
        while True:
            cost = omp.atomic
            if phase.calc is not None:
                cost += self.costs.chunk_calc
            yield Overhead(cost)
            grabbed = self._grab(phase, tid) if phase.calc is not None else None
            if grabbed is None:
                if phase.global_done:
                    break
                # chunk dry: serialise the MPI fetch through the mutex
                t0 = self.sim.now
                yield from phase.fetch_mutex.acquire(owner=f"t{tid}")
                try:
                    # re-check: someone may have refilled while we waited
                    if phase.calc is not None and phase.scheduled < phase.size:
                        continue
                    if phase.global_done:
                        break
                    result = yield from phase.fetch_fn()
                    phase.n_fetches += 1
                    if result is None:
                        phase.global_done = True
                        break
                    new_start, new_size = result
                    phase.start = new_start
                    phase.size = new_size
                    phase.scheduled = 0
                    phase.counter = 0
                    # Standard dynamic/guided have no Technique
                    # calculator; emulate one so _grab has a uniform path.
                    phase.calc = self._make_calc(
                        phase.spec, new_size
                    ) or self._emulate_calc(phase.spec, new_size)
                finally:
                    phase.fetch_mutex.release()
                if self.trace is not None and self.sim.now > t0:
                    self.trace.add(
                        f"{self.name}.t{tid}", t0, self.sim.now, trace_mod.OBTAIN
                    )
                continue
            abs_start, size = grabbed
            duration = phase.body_time(abs_start, size, tid)
            t0 = self.sim.now
            yield ComputeOnce(duration)  # jittered: unique per chunk
            self._retire(phase, tid, size, duration, t0)
        # one final barrier ends the region
        yield from self._barrier_wait(phase, tid)

    def _emulate_calc(self, spec: ScheduleSpec, size: int) -> ChunkCalculator:
        from repro.core.techniques import _FixedSizeCalculator, _GssCalculator

        if spec.kind == "dynamic":
            return _FixedSizeCalculator("dynamic-emu", size, self.n_threads,
                                        spec.chunk or 1)
        if spec.kind == "guided":
            return _GssCalculator("guided-emu", size, self.n_threads)
        if spec.kind == "static":
            # In the self-fetch region there is no pinned pre-assignment
            # (threads join chunks at different times), so 'static'
            # degrades gracefully to self-scheduled slices of the pinned
            # size — the same semantics the MPI+MPI local queue gives a
            # STATIC intra-node technique.
            return _FixedSizeCalculator(
                "static-emu", size, self.n_threads,
                spec.chunk or ceil_div(max(size, 1), self.n_threads),
            )
        raise AssertionError(f"no emulation needed for {spec.kind}")

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate phase statistics (for tests and reports)."""
        return {
            "phases": len(self.phases),
            "total_grabs": sum(sum(p.grabs.values()) for p in self.phases),
            "total_fetches": sum(p.n_fetches for p in self.phases),
        }
