"""The discrete-event simulation engine.

The :class:`Simulator` owns a time-ordered event heap.  Each heap entry
resumes one simulated :class:`Process` (a Python generator).  Processes
communicate and synchronise exclusively through the primitives in
:mod:`repro.sim.primitives` and the resources in
:mod:`repro.sim.resources`, which keeps the engine itself tiny and the
whole simulation deterministic.

Performance notes
-----------------
Every paper artifact replays millions of events through this loop, so
:meth:`Simulator.run` is written as a single inlined interpreter:

* a type-keyed dispatch table (:data:`_COMMAND_KINDS`) replaces the
  old ``isinstance`` chain; unknown ``Command`` subclasses are resolved
  once and memoised;
* per-event attribute lookups (heap ops, ``DelayKind`` members) are
  hoisted into locals, and the dominant pop-then-push pair is fused
  into a single ``heapreplace`` (the current event is *peeked* and
  lazily replaced by the process's next resume, halving sift work);
* zero-delay resumes — spawn kick-offs, event triggers, lock hand-offs,
  the poll loops behind ``SharedWindow.lock`` — go through a FIFO
  *ready* deque instead of the heap (O(1) instead of O(log n)); the
  deque is merged with the heap in exact ``(time, seq)`` order, so
  execution order is bit-identical to the pure-heap engine.

The lazy-root invariant: while a heap-sourced event is being
interpreted, its entry remains the heap root.  Every resume scheduled
*during* interpretation lies strictly later in ``(time, seq)`` order
(delays are positive, sequence numbers grow), so the root stays the
minimum until it is replaced or popped on every exit path.

Conventions: ``Simulator.now`` and every :class:`Delay` duration are
simulated seconds.  The engine knows no MPI rank or node index:
processes are identified by name (the MPI layer spawns one per rank,
named ``rank<r>``) and ties in time are broken by scheduling sequence.
"""

from __future__ import annotations

import heapq
import mmap
from collections import deque
from itertools import chain, count
from math import inf as _INF
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

# NumPy 2 loads numpy.random on first use.  Every run draws from it, so
# load it with the engine: forked pool workers then inherit it instead
# of each importing it on its first cell.
import numpy.random  # noqa: F401

from repro.sim.primitives import Command, Delay, DelayKind, Halt, SimEvent, Spawn

ProcessBody = Generator[Command, Any, Any]

#: dispatch codes for the command interpreter
_KIND_DELAY = 1
_KIND_EVENT = 2
_KIND_SPAWN = 3
_KIND_HALT = 4

#: type-keyed dispatch table; exact types are pre-registered, subclasses
#: are resolved through ``_resolve_command_kind`` and memoised here.
_COMMAND_KINDS: Dict[type, int] = {
    Delay: _KIND_DELAY,
    SimEvent: _KIND_EVENT,
    Spawn: _KIND_SPAWN,
    Halt: _KIND_HALT,
}


#: values drawn per refill of a buffered stream (see :meth:`Simulator.stream`)
STREAM_BLOCK = 256

#: address space (bytes) each simulator maps but never touches, and
#: unmaps as a failure unwinds :meth:`Simulator.run`: out of memory, the
#: first allocation in a handler on the way out could stall for minutes
OOM_RESERVE = 4 << 20

#: sentinel returned by ``Simulator._interpret_uncommon`` when the
#: process blocked (scheduled a future resume) instead of continuing.
_BLOCKED = object()


def _resolve_command_kind(cls: type) -> int:
    """Slow-path dispatch for Command subclasses (memoised)."""
    for base, code in (
        (Delay, _KIND_DELAY),
        (SimEvent, _KIND_EVENT),
        (Spawn, _KIND_SPAWN),
        (Halt, _KIND_HALT),
    ):
        if issubclass(cls, base):
            _COMMAND_KINDS[cls] = code
            return code
    return 0


class _HaltSignal(BaseException):
    """Internal control-flow signal: a process yielded ``Halt``.

    Raised (and always caught) inside :meth:`Simulator.run` so the hot
    loop does not need a per-event halt check; derives from
    ``BaseException`` so stray ``except Exception`` user code cannot
    swallow it.
    """


class ProcessFailure(RuntimeError):
    """Raised when a simulated process raises; carries the process name."""

    def __init__(self, process: "Process", original: BaseException):
        super().__init__(f"process {process.name!r} failed: {original!r}")
        self.process = process
        self.original = original


class SimulationTimeout(RuntimeError):
    """The watchdog deadline passed before the simulation drained.

    Raised by :meth:`Simulator.run` when ``max_sim_time`` is exceeded;
    carries a diagnostic snapshot (simulated time, the still-alive
    processes, pending event counts) so a livelocked configuration
    fails loudly instead of spinning forever.
    """

    def __init__(self, sim: "Simulator", deadline: float):
        alive = [p.name for p in sim.processes if p.alive]
        shown = ", ".join(alive[:8]) + ("..." if len(alive) > 8 else "")
        super().__init__(
            f"simulation exceeded max_sim_time={deadline:g}s at "
            f"t={sim.now:g}s with {len(alive)} live process(es) "
            f"[{shown}] and {len(sim._heap) + len(sim._ready)} pending "
            f"event(s) — likely a livelock or an unreachable termination "
            f"condition"
        )
        self.deadline = deadline
        self.sim_time = sim.now
        self.live_processes = alive
        self.pending_events = len(sim._heap) + len(sim._ready)


class Process:
    """A running simulated process.

    Wraps the user generator together with its accounting state.  The
    per-kind time accumulators (:attr:`compute_time`,
    :attr:`overhead_time`, :attr:`idle_time`) are the raw material for
    the metrics layer; *implicit* idle time (waiting on events) is the
    remainder ``(end - start) - compute - overhead - idle``.
    """

    __slots__ = (
        "name",
        "gen",
        "send",
        "sim",
        "alive",
        "killed",
        "finished",
        "_done",
        "result",
        "start_time",
        "end_time",
        "compute_time",
        "overhead_time",
        "idle_time",
        "meta",
    )

    def __init__(self, sim: "Simulator", gen: ProcessBody, name: str):
        self.sim = sim
        self.gen = gen
        #: bound ``gen.send`` — resolved once; the run loop's hottest call
        self.send = gen.send
        self.name = name
        self.alive = True
        #: True when the process was crash-stopped by :meth:`Simulator.kill`
        self.killed = False
        #: True only after a *normal* termination (generator returned);
        #: stays False for processes killed by ProcessFailure.
        self.finished = False
        self._done: Optional[SimEvent] = None
        self.result: Any = None
        self.start_time = sim.now
        self.end_time: Optional[float] = None
        self.compute_time = 0.0
        self.overhead_time = 0.0
        self.idle_time = 0.0
        #: Free-form annotations (rank ids, node ids, ...), set by layers above.
        self.meta: Dict[str, Any] = {}

    @property
    def done(self) -> SimEvent:
        """Triggered (with the generator's return value) on termination.

        Created lazily: most processes are never waited on, so the
        event (and its trigger at finish time) would be pure overhead.
        A process that already terminated hands back a pre-triggered
        event carrying its result.
        """
        event = self._done
        if event is None:
            event = self._done = SimEvent(self.sim, name=f"{self.name}.done")
            if self.finished:
                # Normal termination only: a crashed process (raised ->
                # ProcessFailure) must not present itself as completed.
                event.triggered = True
                event.value = self.result
        return event

    @property
    def elapsed(self) -> float:
        """Wall-clock (simulated) lifetime of the process so far."""
        end = self.end_time if self.end_time is not None else self.sim.now
        return end - self.start_time

    @property
    def wait_time(self) -> float:
        """Implicit idle time spent blocked on events/resources."""
        return max(
            0.0, self.elapsed - self.compute_time - self.overhead_time - self.idle_time
        )

    def _account(self, delay: Delay) -> None:
        if delay.kind is DelayKind.COMPUTE:
            self.compute_time += delay.duration
        elif delay.kind is DelayKind.OVERHEAD:
            self.overhead_time += delay.duration
        else:
            self.idle_time += delay.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :meth:`rng`).
    trace:
        Optional callback ``(time, process_name, label, payload)``
        invoked by instrumented layers; ``None`` disables tracing with
        zero overhead at call sites that check :attr:`tracing`.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Callable[[float, str, str, Any], None]] = None,
    ):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Process, Any]] = []
        #: zero-delay resumes at the *current* time, FIFO by sequence
        #: number; merged with the heap in exact (time, seq) order.
        self._ready: Deque[Tuple[int, Process, Any]] = deque()
        #: shared monotonic sequence for FIFO tie-breaking (C-level fast)
        self._seq = count(1)
        self.seed = int(seed)
        self._rngs: Dict[str, np.random.Generator] = {}
        #: buffered streams: name -> (draw, params, next-value function)
        self._streams: Dict[str, Tuple[Callable, tuple, Callable[[], float]]] = {}
        self.processes: List[Process] = []
        self.trace = trace
        self.n_events_processed = 0
        #: callbacks :meth:`close` runs (layers that own per-process state)
        self._closers: List[Callable[[], None]] = []
        self._reserve = mmap.mmap(-1, OOM_RESERVE)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """Whether a trace callback receives :meth:`emit` records."""
        return self.trace is not None

    def emit(self, process_name: str, label: str, payload: Any = None) -> None:
        """Emit a trace record if tracing is enabled."""
        if self.trace is not None:
            self.trace(self.now, process_name, label, payload)

    def rng(self, stream: str) -> np.random.Generator:
        """Return the named deterministic RNG stream.

        Streams are independent and reproducible: the same ``(seed,
        stream)`` pair always yields the same sequence regardless of
        creation order.
        """
        gen = self._rngs.get(stream)
        if gen is None:
            if stream in self._streams:
                raise ValueError(
                    f"stream {stream!r} is buffered; draw it through stream()"
                )
            gen = self._rngs[stream] = self._new_rng(stream)
        return gen

    def stream(
        self, name: str, draw: Callable[..., np.ndarray], *params: Any
    ) -> Callable[[], float]:
        """The next-value function of the named stream, drawn in blocks.

        ``draw(rng, *params, size)`` must return ``size`` values equal,
        element by element, to ``size`` successive scalar draws of the
        same kind (NumPy's ``Generator`` methods fill arrays with the
        scalar sampler in order).  Values are handed out as Python
        floats from blocks of :data:`STREAM_BLOCK`, which takes the
        per-draw NumPy call off hot paths without changing one value.

        Every request for ``name`` returns the same function, so
        consumers that share a stream see its sequential values in
        consumption order.  A stream is either buffered or raw:
        :meth:`rng` refuses a buffered name (its generator runs ahead of
        what was consumed), and so does a second request for ``name``
        with another ``draw`` or other ``params``.
        """
        entry = self._streams.get(name)
        if entry is None:
            if name in self._rngs:
                raise ValueError(
                    f"stream {name!r} is already drawn unbuffered through rng()"
                )
            gen = self._new_rng(name)

            def block() -> List[float]:
                return draw(gen, *params, STREAM_BLOCK).tolist()

            values = chain.from_iterable(iter(block, None))
            entry = self._streams[name] = (draw, params, values.__next__)
        elif entry[0] is not draw or entry[1] != params:
            raise ValueError(
                f"stream {name!r} is already buffered with another draw"
            )
        return entry[2]

    def _new_rng(self, stream: str) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(_stable_hash(stream),))
        return np.random.default_rng(ss)

    def on_close(self, closer: Callable[[], None]) -> None:
        """Have :meth:`close` call ``closer`` (once, in registration order)."""
        self._closers.append(closer)

    def close(self) -> None:
        """Free a finished run's object graph by reference counting.

        Processes point back at their simulator and MPI ranks at their
        world, so without this every simulated run stays in memory until
        the cyclic collector finds it, and at 10^4 ranks the runs of a
        sweep pile up between collections.  Runs the :meth:`on_close`
        callbacks, then drops the processes, pending events and RNG
        streams; the counters (``now``, ``n_events_processed``) stay
        readable.  A closed simulator must not be run again.
        """
        self._reserve.close()
        closers, self._closers = self._closers, []
        for closer in closers:
            closer()
        self.processes = []
        self._heap = []
        self._ready = deque()
        self._rngs = {}
        self._streams = {}

    def event(self, name: str = "") -> SimEvent:
        """Create an event bound to this simulator."""
        return SimEvent(self, name=name)

    def spawn(self, gen: ProcessBody, name: Optional[str] = None) -> Process:
        """Start a new process at the current simulation time."""
        if not hasattr(gen, "send"):
            raise TypeError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        process = Process(self, gen, name or f"proc-{len(self.processes)}")
        self.processes.append(process)
        # Kick the generator off with an immediate resume so that spawn
        # order (not creation order) defines execution order at t=now.
        self._schedule_resume(process, None)
        return process

    def kill(self, process: Process) -> bool:
        """Crash-stop ``process`` at the current simulated time.

        Returns True if the process was alive (and is now dead), False
        for a no-op on an already-terminated process.  The generator is
        closed, which runs its ``finally`` blocks (modelling hardware
        that completes in-flight atomics) and makes any stale queue
        entry for the process resolve as an immediate ``StopIteration``
        in the run loop — no queue scrubbing needed.  A killed process
        never counts as :attr:`Process.finished` and its ``done`` event
        never triggers: crash-stop is silent, exactly like a real dead
        rank.
        """
        if not process.alive:
            return False
        process.alive = False
        process.killed = True
        process.end_time = self.now
        try:
            process.gen.close()
        except RuntimeError:
            # The generator refused to die (yielded during close);
            # treat it as dead anyway — it will never be resumed.
            pass
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_sim_time: Optional[float] = None,
    ) -> float:
        """Run until the queues drain, ``until`` is reached, or a halt.

        ``max_sim_time`` arms a watchdog: if simulated time would pass
        it before the queues drain, :class:`SimulationTimeout` is
        raised with a diagnostic snapshot (live processes, pending
        events).  Unlike ``until`` — which *pauses* at the horizon —
        the watchdog treats reaching the deadline as a failure.

        Returns the final simulation time.  Re-entrant calls are not
        supported (the engine is strictly single-threaded).
        """
        # -- hoisted hot-loop locals -----------------------------------
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        next_seq = self._seq.__next__
        compute_kind = DelayKind.COMPUTE
        overhead_kind = DelayKind.OVERHEAD
        horizon = _INF if until is None else until
        deadline = _INF if max_sim_time is None else max_sim_time
        # The tight lane skips the horizon/deadline compare entirely, so
        # it is only legal when neither bound is armed.
        unbounded = until is None and max_sim_time is None
        now = self.now
        n_done = 0
        try:
            while True:
                # -- tight lane: heap-sourced event, ready deque empty --
                # The dominant regime (pure delay-driven phases), taken
                # only for horizon-free runs (``until=None`` — every
                # model execution; bounded runs use the general lane).
                # Kept free of the merge logic, the from_heap flag and
                # the horizon compare; exits via IndexError on heap
                # exhaustion and falls back to the general lane the
                # moment anything lands in the ready deque.  Heap-sourced
                # events are *peeked*: the root entry stays put (it
                # remains the minimum — see the lazy-root invariant
                # above) and is replaced/popped only when the resume
                # resolves.
                if unbounded:
                    while not ready:
                        try:
                            # The only statement this handler guards:
                            # IndexError here means the heap drained.
                            # Exceptions from process code cannot reach
                            # it — they are wrapped as ProcessFailure at
                            # the send() call below.
                            t, _seq, process, value = heap[0]
                        except IndexError:
                            break
                        if t != now:
                            # Times cluster heavily (lockstep delays,
                            # barrier releases): skip the attribute
                            # store when the clock does not move.
                            now = self.now = t
                        n_done += 1
                        # No liveness check here: every queue entry
                        # references an alive process (death paths —
                        # StopIteration and ProcessFailure — consume
                        # the process's only pending entry, and
                        # triggers only ever wake blocked waiters).
                        while True:
                            try:
                                command = process.send(value)
                            except StopIteration as stop:
                                heappop(heap)
                                self._finish(process, stop.value)
                                break
                            except ProcessFailure:
                                heappop(heap)
                                raise
                            except BaseException as exc:  # noqa: BLE001
                                heappop(heap)
                                process.alive = False
                                process.end_time = now
                                raise ProcessFailure(process, exc) from exc

                            if command.__class__ is Delay:
                                # Fast path: the most common command.
                                duration = command.duration
                                kind = command.kind
                                if kind is compute_kind:
                                    process.compute_time += duration
                                elif kind is overhead_kind:
                                    process.overhead_time += duration
                                else:
                                    process.idle_time += duration
                                if duration == 0.0:
                                    # Zero delays resume inline: cheap
                                    # and keeps event counts
                                    # proportional to *time-consuming*
                                    # actions.
                                    value = None
                                    continue
                                heapreplace(
                                    heap,
                                    (now + duration, next_seq(), process, None),
                                )
                                break
                            if command.__class__ is SimEvent:
                                if command._sim is None:
                                    command._sim = self
                                if command.triggered:
                                    value = command.value
                                    continue
                                command._waiters.append(process)
                                heappop(heap)
                                break
                            # Uncommon commands (Spawn/Halt/subclasses):
                            # shared slow-path interpreter.
                            value = self._interpret_uncommon(
                                process, command, True
                            )
                            if value is _BLOCKED:
                                break

                # -- general lane: merge ready deque and heap ----------
                # Every ready entry sits at the current time, so a heap
                # entry wins only when it is also due now with a smaller
                # sequence number.
                if ready:
                    head = heap[0] if heap else None
                    if head is not None and head[0] <= now and head[1] < ready[0][0]:
                        from_heap = True
                        t, _seq, process, value = head
                        now = self.now = t
                    else:
                        from_heap = False
                        _seq, process, value = ready.popleft()
                elif heap:
                    t, _seq, process, value = heap[0]
                    if t > horizon or t > deadline:
                        if t > deadline and deadline < horizon:
                            # Watchdog fires before (or instead of) the
                            # pause horizon: fail loudly.
                            raise SimulationTimeout(self, deadline)
                        self.now = until
                        return until
                    from_heap = True
                    now = self.now = t
                else:
                    break
                n_done += 1
                if not process.alive:
                    if from_heap:
                        heappop(heap)
                    continue

                # -- interpret the process's next command(s) -----------
                while True:
                    try:
                        command = process.send(value)
                    except StopIteration as stop:
                        if from_heap:
                            heappop(heap)
                        self._finish(process, stop.value)
                        break
                    except ProcessFailure:
                        if from_heap:
                            heappop(heap)
                        raise
                    except BaseException as exc:  # noqa: BLE001 - deliberate wrap
                        if from_heap:
                            heappop(heap)
                        process.alive = False
                        process.end_time = now
                        raise ProcessFailure(process, exc) from exc

                    cls = command.__class__
                    if cls is Delay:
                        # Fast path: by far the most common command.
                        duration = command.duration
                        kind = command.kind
                        if kind is compute_kind:
                            process.compute_time += duration
                        elif kind is overhead_kind:
                            process.overhead_time += duration
                        else:
                            process.idle_time += duration
                        if duration == 0.0:
                            # Zero delays resume inline: cheap and keeps
                            # event counts proportional to
                            # *time-consuming* actions.
                            value = None
                            continue
                        if from_heap:
                            heapreplace(
                                heap, (now + duration, next_seq(), process, None)
                            )
                        else:
                            heappush(heap, (now + duration, next_seq(), process, None))
                        break
                    if cls is SimEvent:
                        if command._sim is None:
                            command._sim = self
                        if command.triggered:
                            value = command.value
                            continue
                        command._waiters.append(process)
                        if from_heap:
                            heappop(heap)
                        break
                    # -- uncommon commands: shared slow-path dispatch --
                    value = self._interpret_uncommon(process, command, from_heap)
                    if value is _BLOCKED:
                        break
        except _HaltSignal:
            pass
        except BaseException:
            self._reserve.close()  # out of memory: let the unwinding allocate
            raise
        finally:
            self.n_events_processed += n_done
        return self.now

    def _interpret_uncommon(
        self, process: Process, command: Any, from_heap: bool
    ) -> Any:
        """Handle Spawn/Halt/``Command`` subclasses from the run loop.

        Returns the value to resume the process with, or :data:`_BLOCKED`
        when the process yielded a pending resume (delay scheduled /
        event wait) and interpretation of this event is over.  When
        ``from_heap`` is true the current event's (stale) root entry is
        consumed on every path that ends the resume.
        """
        code = _COMMAND_KINDS.get(command.__class__)
        if code is None:
            code = _resolve_command_kind(command.__class__)
        if code == _KIND_DELAY:
            process._account(command)
            if command.duration == 0.0:
                return None
            entry = (self.now + command.duration, next(self._seq), process, None)
            if from_heap:
                heapq.heapreplace(self._heap, entry)
            else:
                heapq.heappush(self._heap, entry)
            return _BLOCKED
        if code == _KIND_EVENT:
            if command._sim is None:
                command.bind(self)
            if command.triggered:
                return command.value
            command.add_waiter(process)
            if from_heap:
                heapq.heappop(self._heap)
            return _BLOCKED
        if code == _KIND_SPAWN:
            return self.spawn(command.factory(), name=command.name)
        if code == _KIND_HALT:
            if from_heap:
                heapq.heappop(self._heap)
            raise _HaltSignal()
        if from_heap:
            heapq.heappop(self._heap)
        raise TypeError(
            f"process {process.name!r} yielded unsupported command "
            f"{command!r} of type {type(command).__name__}"
        )

    # ------------------------------------------------------------------
    # engine internals
    # ------------------------------------------------------------------
    def _schedule_resume(self, process: Process, value: Any) -> None:
        # Fast lane: resumes at the current time keep FIFO order, so a
        # deque append replaces an O(log n) heap push.
        self._ready.append((next(self._seq), process, value))

    def _finish(self, process: Process, result: Any) -> None:
        if process.killed:
            # A crash-stopped process's closed generator raises
            # StopIteration when its stale queue entry resumes it; that
            # is the entry draining, not a normal termination.  Keep the
            # kill-time end_time and never trigger ``done``.
            return
        process.alive = False
        process.finished = True
        process.result = result
        process.end_time = self.now
        done = process._done
        if done is not None:
            done.trigger(result)


class CohortLane:
    """Macro-event dispatch lane for the rank-aggregated cohort engine.

    A tiny ordered heap of *macro* events — condensed spans of the
    scalar event stream, each standing in for a whole chain of per-rank
    heap events.  Entries order by ``(time, push_time, seq)``:

    * ``time`` — the simulated second the macro's scalar anchor event
      would land;
    * ``push_time`` — the simulated second the scalar engine would have
      *pushed* that anchor entry (the previous yield point).  The
      scalar heap breaks same-time ties by push order, so carrying the
      push time reproduces exact tie-breaking — e.g. a lock attempt
      landing precisely at an unlock's release loses because attempt
      entries are pushed ``shm_lock_attempt`` before landing while
      unlock entries are pushed only ``shm_unlock`` before;
    * ``seq`` — a monotonic sequence assigned at schedule time, which
      resolves residual ties (structurally symmetric ranks/node groups)
      in ancestry order, exactly like the scalar engine's sequence
      numbers inherited from rank spawn order.

    The lane is deliberately engine-agnostic: :mod:`repro.sim.cohorts`
    interprets the macro codes; this class only owns ordering.
    """

    __slots__ = ("now", "heap", "_seq")

    def __init__(self):
        self.now: float = 0.0
        self.heap: List[Tuple[float, float, int, int, Any]] = []
        self._seq = count(1)

    def schedule(self, time: float, push_time: float, code: int, payload: Any) -> None:
        """Enqueue a macro anchored at ``time`` pushed at ``push_time``."""
        heapq.heappush(
            self.heap, (time, push_time, next(self._seq), code, payload)
        )

    def pop(self) -> Tuple[float, float, int, int, Any]:
        """Pop the next macro in scalar-equivalent order, advancing ``now``."""
        entry = heapq.heappop(self.heap)
        self.now = entry[0]
        return entry

    def __len__(self) -> int:
        return len(self.heap)


def _stable_hash(text: str) -> int:
    """A deterministic 32-bit hash (Python's ``hash`` is salted)."""
    value = 2166136261
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value


def drain(
    sim: Simulator,
    processes: Iterable[Process],
    max_sim_time: Optional[float] = None,
) -> None:
    """Run the simulator until every given process has terminated.

    ``max_sim_time`` arms the engine watchdog (see
    :class:`SimulationTimeout`).
    """
    sim.run(max_sim_time=max_sim_time)
    pending = [p for p in processes if p.alive]
    if pending:
        names = ", ".join(p.name for p in pending[:8])
        raise RuntimeError(
            f"simulation deadlock: {len(pending)} processes still alive ({names})"
        )
