"""Unit tests for locks, semaphores, barriers, and stores."""

import pytest

from repro.sim import Barrier, Compute, Lock, Semaphore, Simulator, Store


# ---------------------------------------------------------------------------
# Lock
# ---------------------------------------------------------------------------


def test_lock_mutual_exclusion_and_fifo_handoff():
    sim = Simulator()
    lock = Lock(sim)
    order = []

    def proc(name, work):
        yield from lock.acquire(owner=name)
        order.append(("in", name, sim.now))
        yield Compute(work)
        order.append(("out", name, sim.now))
        lock.release()

    sim.spawn(proc("a", 2.0))
    sim.spawn(proc("b", 1.0))
    sim.spawn(proc("c", 1.0))
    sim.run()
    # strict FIFO: a then b then c, no overlap
    assert order == [
        ("in", "a", 0.0),
        ("out", "a", 2.0),
        ("in", "b", 2.0),
        ("out", "b", 3.0),
        ("in", "c", 3.0),
        ("out", "c", 4.0),
    ]
    assert lock.n_acquisitions == 3
    assert not lock.locked


def test_lock_try_acquire():
    sim = Simulator()
    lock = Lock(sim)
    assert lock.try_acquire("x")
    assert not lock.try_acquire("y")
    lock.release()
    assert lock.try_acquire("y")


def test_lock_release_unlocked_raises():
    sim = Simulator()
    lock = Lock(sim)
    with pytest.raises(RuntimeError, match="unlocked"):
        lock.release()


def test_lock_owner_tracking():
    sim = Simulator()
    lock = Lock(sim)

    def proc():
        yield from lock.acquire(owner="me")
        assert lock.owner == "me"
        lock.release()

    sim.spawn(proc())
    sim.run()
    assert lock.owner is None


# ---------------------------------------------------------------------------
# Semaphore
# ---------------------------------------------------------------------------


def test_semaphore_limits_concurrency():
    sim = Simulator()
    sem = Semaphore(sim, 2)
    active = []
    peak = []

    def proc(i):
        yield from sem.acquire()
        active.append(i)
        peak.append(len(active))
        yield Compute(1.0)
        active.remove(i)
        sem.release()

    for i in range(5):
        sim.spawn(proc(i))
    sim.run()
    assert max(peak) == 2
    assert sem.value == 2


def test_semaphore_negative_value_rejected():
    with pytest.raises(ValueError):
        Semaphore(Simulator(), -1)


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------


def test_barrier_releases_all_at_last_arrival():
    sim = Simulator()
    bar = Barrier(sim, 3)
    released = []

    def proc(name, delay):
        yield Compute(delay)
        yield from bar.wait()
        released.append((name, sim.now))

    sim.spawn(proc("fast", 1.0))
    sim.spawn(proc("mid", 2.0))
    sim.spawn(proc("slow", 5.0))
    sim.run()
    assert all(t == 5.0 for _, t in released)
    assert len(released) == 3
    assert bar.generations == [5.0]


def test_barrier_is_reusable_across_generations():
    sim = Simulator()
    bar = Barrier(sim, 2)
    times = []

    def proc(delay):
        for phase in range(3):
            yield Compute(delay)
            yield from bar.wait()
            times.append(sim.now)

    sim.spawn(proc(1.0))
    sim.spawn(proc(2.0))
    sim.run()
    # phases complete at the slow process times: 2, 4, 6
    assert times == [2.0, 2.0, 4.0, 4.0, 6.0, 6.0]
    assert bar.generations == [2.0, 4.0, 6.0]


def test_single_party_barrier_never_blocks():
    sim = Simulator()
    bar = Barrier(sim, 1)

    def proc():
        yield Compute(1.0)
        yield from bar.wait()
        yield Compute(1.0)

    p = sim.spawn(proc())
    sim.run()
    assert p.end_time == 2.0


def test_barrier_invalid_parties():
    with pytest.raises(ValueError):
        Barrier(Simulator(), 0)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield Compute(1.0)
            store.put(i)

    def consumer():
        for _ in range(3):
            item = yield from store.get()
            got.append((item, sim.now))

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_buffers_when_no_getter():
    sim = Simulator()
    store = Store(sim)

    def producer():
        store.put("a")
        store.put("b")
        yield Compute(0.0)

    sim.spawn(producer())
    sim.run()
    assert len(store) == 2


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(name):
        item = yield from store.get()
        got.append((name, item))

    def producer():
        yield Compute(1.0)
        store.put(1)
        store.put(2)

    sim.spawn(getter("g1"))
    sim.spawn(getter("g2"))
    sim.spawn(producer())
    sim.run()
    assert got == [("g1", 1), ("g2", 2)]
