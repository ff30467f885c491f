"""Tests for shared-memory windows with lock polling (local work queue)."""

import pytest

from repro.cluster.costs import CostModel
from repro.cluster.machine import homogeneous
from repro.sim import Compute, ProcessFailure, Simulator
from repro.smpi import MpiWorld


def make_world(n_nodes=1, cores=4, ppn=4, seed=0, costs=None):
    return MpiWorld(
        Simulator(seed=seed),
        homogeneous(n_nodes, cores),
        ppn=ppn,
        costs=costs or CostModel(),
    )


def test_lock_provides_mutual_exclusion():
    world = make_world()
    shm = world.create_shared_window(0, {"counter": 0})
    critical = []

    def main(ctx):
        for _ in range(5):
            yield from shm.lock(ctx)
            value = yield from shm.load(ctx, "counter")
            critical.append(("in", ctx.rank))
            yield Compute(1e-6)
            yield from shm.store(ctx, "counter", value + 1)
            critical.append(("out", ctx.rank))
            yield shm.unlock(ctx)
            shm.release(ctx)

    world.run(main)
    # no lost updates
    assert shm.peek("counter") == 20
    # strictly alternating in/out (no nesting = mutual exclusion)
    for i in range(0, len(critical), 2):
        assert critical[i][0] == "in"
        assert critical[i + 1][0] == "out"
        assert critical[i][1] == critical[i + 1][1]


def test_unlocked_access_raises_data_race():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.load(ctx, "c")
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="data race"):
        world.run(main)


def test_store_requires_lock_too():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.store(ctx, "c", 1)
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="data race"):
        world.run(main)


def test_access_requires_lock_ownership_not_just_held():
    """Rank B mutating the window while rank A holds the lock is a data
    race even though *a* lock is held — the ownership check must compare
    against the calling rank."""
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.lock(ctx)
            yield Compute(1e-3)  # hold the lock while rank 1 intrudes
            yield shm.unlock(ctx)
            shm.release(ctx)
        elif ctx.rank == 1:
            yield Compute(1e-4)  # let rank 0 acquire first
            assert shm.locked  # held — but not by us
            yield from shm.store(ctx, "c", 42)
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="rank1 while rank0 holds"):
        world.run(main)


def test_unlock_requires_ownership():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.lock(ctx)
            yield Compute(1e-3)
            yield shm.unlock(ctx)
            shm.release(ctx)
        elif ctx.rank == 1:
            yield Compute(1e-4)
            yield shm.unlock(ctx)  # not ours to release
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="data race"):
        world.run(main)


def test_plain_access_and_unlock_check_the_holder_at_call_time():
    """``access``/``unlock`` return their delay instead of being
    generators, so the data-race checks fire on the call itself."""
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})
    holder, intruder = world.contexts[0], world.contexts[1]
    for step in (lambda ctx: shm.access(ctx, n=2), shm.unlock):
        with pytest.raises(RuntimeError, match="accessed without holding"):
            step(holder)
    assert shm.total_penalty_s == 0.0
    assert shm.try_lock(holder)
    for step in (lambda ctx: shm.access(ctx, n=2), shm.unlock):
        with pytest.raises(RuntimeError, match="rank1 while rank0 holds"):
            step(intruder)
    assert shm.access(holder, n=2).duration == 2 * world.costs.mpi.shm_access
    assert shm.unlock(holder).duration == world.costs.mpi.shm_unlock
    shm.release(holder)
    assert not shm.locked
    assert shm.contention_stats()["acquisitions"] == 1


def test_contention_inflates_poll_wait_and_attempts():
    """Under contention the polling model must show (a) retries and
    (b) nonzero poll wait — the root cause of the paper's X+SS result."""
    costs = CostModel().with_overrides(**{"mpi.shm_poll_interval": 50e-6})
    world = make_world(cores=8, ppn=8, costs=costs)
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        for _ in range(20):
            yield from shm.lock(ctx)
            value = yield from shm.load(ctx, "c")
            yield Compute(2e-6)  # hold the lock a while
            yield from shm.store(ctx, "c", value + 1)
            yield shm.unlock(ctx)
            shm.release(ctx)

    world.run(main)
    assert shm.peek("c") == 160
    stats = shm.contention_stats()
    assert stats["acquisitions"] == 160
    assert stats["attempts"] > stats["acquisitions"]  # retries happened
    assert stats["total_poll_wait"] > 0.0
    assert stats["max_attempts"] >= 2


def test_uncontended_lock_is_cheap():
    world = make_world(cores=1, ppn=1)
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        for _ in range(10):
            yield from shm.lock(ctx)
            yield shm.unlock(ctx)
            shm.release(ctx)

    world.run(main)
    stats = shm.contention_stats()
    assert stats["attempts"] == stats["acquisitions"] == 10
    assert stats["total_poll_wait"] == 0.0


def test_poll_interval_scales_contention_cost():
    """Doubling the polling interval should slow a contended run."""
    times = {}
    for label, interval in (("short", 10e-6), ("long", 200e-6)):
        costs = CostModel().with_overrides(**{"mpi.shm_poll_interval": interval})
        world = make_world(cores=8, ppn=8, seed=1, costs=costs)
        shm = world.create_shared_window(0, {"c": 0})

        def main(ctx):
            for _ in range(10):
                yield from shm.lock(ctx)
                yield Compute(2e-6)
                yield shm.unlock(ctx)
                shm.release(ctx)

        world.run(main)
        times[label] = world.sim.now
    assert times["long"] > times["short"]


def test_win_sync_charges_cost_and_counts():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield shm.sync(ctx)
        else:
            yield Compute(0.0)

    procs = world.run(main)
    assert shm.n_syncs == 1
    assert procs[0].overhead_time == pytest.approx(world.costs.mpi.shm_win_sync)


def test_state_dict_with_access_charging():
    world = make_world()
    shm = world.create_shared_window(0, {"n_ranges": 0})
    # the structured contents live with the caller; the window only
    # charges their accesses
    queue = []

    def main(ctx):
        yield from shm.lock(ctx)
        yield shm.access(ctx, n=2)
        queue.append((ctx.rank, ctx.rank + 10))
        yield from shm.store(ctx, "n_ranges", len(queue))
        yield shm.unlock(ctx)
        shm.release(ctx)

    world.run(main)
    assert len(queue) == 4
    assert shm.peek("n_ranges") == 4


def test_one_shared_window_per_node():
    world = make_world()
    world.create_shared_window(0, {"a": 0})
    with pytest.raises(RuntimeError, match="already exists"):
        world.create_shared_window(0, {"b": 0})


def test_lock_polling_is_deterministic_given_seed():
    def run(seed):
        costs = CostModel().with_overrides(**{"mpi.shm_poll_interval": 50e-6})
        world = make_world(cores=8, ppn=8, seed=seed, costs=costs)
        shm = world.create_shared_window(0, {"c": 0})

        def main(ctx):
            for _ in range(10):
                yield from shm.lock(ctx)
                yield Compute(1e-6)
                yield shm.unlock(ctx)
                shm.release(ctx)

        world.run(main)
        return world.sim.now

    assert run(3) == run(3)
    assert run(3) != run(4)  # different jitter draws
