"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.sim import (
    Compute,
    Overhead,
    ProcessFailure,
    SimEvent,
    Simulator,
    Timeout,
)
from repro.sim.engine import drain
from repro.sim.primitives import ComputeOnce, Delay, Halt, Spawn


def test_empty_simulator_runs_to_zero():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.now == 0.0


def test_single_process_advances_time():
    sim = Simulator()
    log = []

    def proc():
        yield Compute(1.5)
        log.append(sim.now)
        yield Compute(2.5)
        log.append(sim.now)

    sim.spawn(proc(), name="p")
    end = sim.run()
    assert log == [1.5, 4.0]
    assert end == 4.0


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_gen():
        return 42

    with pytest.raises(TypeError, match="generator"):
        sim.spawn(not_a_gen)  # type: ignore[arg-type]


def test_zero_delay_resumes_inline_without_event():
    sim = Simulator()

    def proc():
        for _ in range(100):
            yield Compute(0.0)

    sim.spawn(proc())
    sim.run()
    # only the initial resume should hit the heap
    assert sim.n_events_processed == 1


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def proc(name, dt):
        for i in range(3):
            yield Compute(dt)
            order.append((name, sim.now))

    sim.spawn(proc("a", 1.0))
    sim.spawn(proc("b", 1.5))
    sim.run()
    # at the t=3.0 tie, b's resume was scheduled (at t=1.5) before a's
    # (at t=2.0), so FIFO sequence numbers put b first
    assert order == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),
        ("a", 3.0),
        ("b", 4.5),
    ]


def test_fifo_tiebreak_preserves_spawn_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield Compute(1.0)
        order.append(name)

    for name in ("x", "y", "z"):
        sim.spawn(proc(name))
    sim.run()
    assert order == ["x", "y", "z"]


def test_event_wait_and_trigger():
    sim = Simulator()
    gate = sim.event("gate")
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    def firer():
        yield Compute(3.0)
        gate.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert seen == [(3.0, "payload")]


def test_triggered_event_resumes_immediately():
    sim = Simulator()
    gate = sim.event()
    gate.trigger("early")
    got = []

    def waiter():
        value = yield gate
        got.append(value)

    sim.spawn(waiter())
    sim.run()
    assert got == ["early"]


def test_double_trigger_raises():
    sim = Simulator()
    gate = sim.event()
    gate.trigger()
    with pytest.raises(RuntimeError, match="already triggered"):
        gate.trigger()


def test_negative_delay_rejected():
    with pytest.raises(ValueError, match="negative delay"):
        Delay(-1.0)


def test_nan_delay_rejected():
    # NaN compares False against 0, so a ``< 0`` test let it through and
    # a NaN-timed event never let the clock advance past it
    with pytest.raises(ValueError, match="NaN delay"):
        Delay(float("nan"))
    with pytest.raises(ValueError, match="NaN delay"):
        ComputeOnce(float("nan"))


def test_process_time_accounting():
    sim = Simulator()

    def proc():
        yield Compute(2.0)
        yield Overhead(0.5)
        yield Timeout(0.25)

    p = sim.spawn(proc())
    sim.run()
    assert p.compute_time == pytest.approx(2.0)
    assert p.overhead_time == pytest.approx(0.5)
    assert p.idle_time == pytest.approx(0.25)
    assert p.end_time == pytest.approx(2.75)


def test_implicit_wait_time_accounting():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield Compute(1.0)
        yield gate

    def firer():
        yield Compute(5.0)
        gate.trigger()

    w = sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    # waited from t=1 to t=5
    assert w.wait_time == pytest.approx(4.0)


def test_done_event_carries_return_value():
    sim = Simulator()
    results = []

    def child():
        yield Compute(1.0)
        return "answer"

    def parent():
        proc = yield Spawn(lambda: child(), name="child")
        value = yield proc.done
        results.append(value)

    sim.spawn(parent())
    sim.run()
    assert results == ["answer"]


def test_process_exception_wrapped_with_name():
    sim = Simulator()

    def bad():
        yield Compute(1.0)
        raise ValueError("boom")

    sim.spawn(bad(), name="badproc")
    with pytest.raises(ProcessFailure, match="badproc"):
        sim.run()


def test_unknown_command_rejected():
    sim = Simulator()

    def weird():
        yield 42  # type: ignore[misc]

    sim.spawn(weird(), name="weird")
    with pytest.raises(TypeError, match="unsupported command"):
        sim.run()


def test_run_until_pauses_and_resumes():
    sim = Simulator()

    def proc():
        yield Compute(10.0)

    p = sim.spawn(proc())
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert p.alive
    sim.run()
    assert not p.alive
    assert sim.now == 10.0


def test_halt_stops_simulation():
    sim = Simulator()

    def stopper():
        yield Compute(1.0)
        yield Halt("test stop")

    def runner():
        yield Compute(100.0)

    sim.spawn(stopper())
    sim.spawn(runner())
    sim.run()
    assert sim.now == 1.0


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    # same seed, same stream -> same numbers, regardless of creation order
    _ = sim_b.rng("other")
    assert sim_a.rng("s").random() == sim_b.rng("s").random()
    # different streams -> different numbers
    assert sim_a.rng("s2").random() != sim_a.rng("s").random()
    # different seeds -> different numbers
    assert Simulator(seed=8).rng("s").random() != Simulator(seed=7).rng("s").random()


def test_drain_detects_deadlock():
    sim = Simulator()
    gate = sim.event()

    def stuck():
        yield gate

    p = sim.spawn(stuck(), name="stuck")
    with pytest.raises(RuntimeError, match="deadlock"):
        drain(sim, [p])


def test_trace_callback_receives_emits():
    records = []
    sim = Simulator(trace=lambda t, p, label, payload: records.append((t, p, label)))

    def proc():
        yield Compute(1.0)
        sim.emit("proc", "did-something")

    sim.spawn(proc())
    sim.run()
    assert records == [(1.0, "proc", "did-something")]


def test_interned_delay_factories_reuse_objects():
    """Compute/Overhead/Timeout intern per (kind, duration) — the engine
    hot path sees the same handful of modelled costs millions of times."""
    from repro.sim.primitives import clear_delay_caches

    clear_delay_caches()  # earlier tests may have filled the bounded caches
    assert Compute(1e-6) is Compute(1e-6)
    assert Overhead(5e-6) is Overhead(5e-6)
    assert Timeout(2e-6) is Timeout(2e-6)
    assert Compute(1e-6) is not Overhead(1e-6)
    assert Compute(1e-6).duration == 1e-6


def test_mixed_ready_and_heap_order_is_seq_exact():
    """Zero-delay resumes (ready deque) and timed resumes (heap) must
    interleave in exact (time, seq) order at equal timestamps."""
    sim = Simulator()
    order = []
    gate = sim.event("gate")

    def sleeper(name, dt):
        yield Compute(dt)
        order.append(name)

    def waiter():
        yield gate
        order.append("waiter")

    def firer():
        yield Compute(1.0)
        order.append("firer")
        gate.trigger()

    # heap entry for "late" (t=1.0) is scheduled before the waiter's
    # trigger-resume (t=1.0, later seq) — heap must win the tie.
    sim.spawn(sleeper("late", 1.0))
    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert order == ["late", "firer", "waiter"]


def test_halt_from_zero_delay_phase():
    """Halt raised out of the ready-deque lane still stops cleanly."""
    sim = Simulator()

    def stopper():
        yield Compute(0.0)
        yield Halt("early")

    def runner():
        yield Compute(5.0)

    sim.spawn(stopper())
    p = sim.spawn(runner())
    sim.run()
    assert sim.now == 0.0
    assert p.alive
    sim.run()
    assert not p.alive


def test_run_until_then_trigger_then_continue():
    """Pausing at `until`, triggering an event, and resuming preserves
    both the pending heap entry and the new ready entry."""
    sim = Simulator()
    gate = sim.event()
    seen = []

    def sleeper():
        yield Compute(10.0)
        seen.append("slept")

    def waiter():
        yield gate
        seen.append("woken")

    sim.spawn(sleeper())
    sim.spawn(waiter())
    sim.run(until=4.0)
    assert sim.now == 4.0
    gate.trigger()
    sim.run()
    assert seen == ["woken", "slept"]
    assert sim.now == 10.0


def test_done_event_lazy_after_termination():
    """Accessing .done after a process finished yields a pre-triggered
    event carrying the result."""
    sim = Simulator()

    def worker():
        yield Compute(1.0)
        return 99

    p = sim.spawn(worker())
    sim.run()
    got = []

    def late_waiter():
        value = yield p.done
        got.append(value)

    sim.spawn(late_waiter())
    sim.run()
    assert got == [99]


def test_spawn_factory_index_error_propagates():
    """An IndexError raised by a Spawn factory must surface, not be
    mistaken for heap exhaustion by the run loop."""
    sim = Simulator()
    bodies = []

    def parent():
        yield Compute(1.0)
        yield Spawn(lambda: bodies[5], name="child")  # IndexError

    sim.spawn(parent(), name="parent")
    with pytest.raises(IndexError):
        sim.run()


def test_done_after_crash_is_not_pretriggered():
    """A crashed process must not report successful completion through
    a lazily-created done event."""
    sim = Simulator()

    def bad():
        yield Compute(1.0)
        raise ValueError("boom")

    p = sim.spawn(bad(), name="bad")
    with pytest.raises(ProcessFailure):
        sim.run()
    assert not p.alive
    assert not p.finished
    assert p.done.triggered is False  # late access: still pending


def test_compute_once_bypasses_interning():
    from repro.sim.primitives import ComputeOnce, OverheadOnce

    a, b = ComputeOnce(1e-6), ComputeOnce(1e-6)
    assert a is not b
    assert a.duration == b.duration == 1e-6
    assert OverheadOnce(2e-6).kind.value == "overhead"


def test_custom_command_subclasses_still_dispatch():
    """Delay/SimEvent subclasses go through the memoised dispatch table."""
    sim = Simulator()

    class MyDelay(Delay):
        pass

    def proc():
        yield MyDelay(2.0)
        return "ok"

    p = sim.spawn(proc())
    sim.run()
    assert p.result == "ok"
    assert sim.now == 2.0
    assert p.overhead_time == pytest.approx(2.0)


def test_yield_from_subroutines_bubble_commands():
    sim = Simulator()
    log = []

    def helper():
        yield Compute(2.0)
        return "sub"

    def proc():
        value = yield from helper()
        log.append((sim.now, value))

    sim.spawn(proc())
    sim.run()
    assert log == [(2.0, "sub")]
