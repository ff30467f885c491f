"""The checks the scalar engine's per-chunk fast paths must keep.

``_Run.exec_time`` reads nominal costs from a plain-Python prefix table
and prices jitter from a buffered stream; shared-memory and RMA windows
price each rank's delays once and reuse them.  None of that may drop a
check the slower code made: out-of-range blocks still raise
``Workload.block_cost``'s ``IndexError``, durations still equal the
scalar formula, and a window that fails over re-prices every rank
against its new home.
"""

import pytest

from repro.cluster.costs import NUMA_PENALTY_COSTS
from repro.cluster.machine import homogeneous
from repro.cluster.noise import HARSH_NOISE
from repro.core.hierarchy import HierarchicalSpec
from repro.models.base import _Run
from repro.models.mpi_mpi import MpiMpiModel
from repro.sim.engine import Simulator
from repro.smpi.world import MpiWorld
from repro.workloads.synthetic import uniform_workload


def _run(workload, cluster, noise=HARSH_NOISE, seed=2):
    return _Run(
        model=MpiMpiModel(),
        workload=workload,
        cluster=cluster,
        spec=HierarchicalSpec.parse("GSS+SS"),
        ppn=None,
        seed=seed,
        collect_trace=False,
        collect_chunks=False,
        costs=NUMA_PENALTY_COSTS,
        noise=noise,
    )


@pytest.mark.parametrize(
    "start, size",
    [(-1, 2), (0, -1), (3, -4), (95, 6), (100, 1), (101, 0), (-5, 0)],
)
def test_exec_time_raises_block_costs_index_error(start, size):
    workload = uniform_workload(100, 1e-5, 4e-5, seed=3)
    run = _run(workload, homogeneous(2, 4))
    with pytest.raises(IndexError) as expected:
        workload.block_cost(start, size)
    with pytest.raises(IndexError) as got:
        run.exec_time(start, size, 0, 1)
    assert str(got.value) == str(expected.value)


def test_exec_time_equals_the_scalar_formula():
    """Durations are ``block_cost * jitter / speed`` with the stream's
    scalar draws, and a rejected block consumes no jitter draw."""
    workload = uniform_workload(500, 1e-5, 4e-5, seed=4)
    cluster = homogeneous(2, 4, core_speed=1.25)
    run = _run(workload, cluster)
    reference = Simulator(seed=2)
    speeds = (
        HARSH_NOISE.core_factor(reference.rng("core-noise.harsh"), 8) * 1.25
    ).tolist()
    jitter_rng = reference.rng("chunk-jitter.harsh")
    blocks = [(0, 7, 0, 0), (7, 1, 1, 3), (8, 0, 0, 2), (250, 250, 1, 1)] * 200
    with pytest.raises(IndexError):
        run.exec_time(499, 2, 0, 0)
    for start, size, node, core in blocks:
        expected = (
            workload.block_cost(start, size)
            * HARSH_NOISE.chunk_jitter(jitter_rng)
            / speeds[node * 4 + core]
        )
        assert run.exec_time(start, size, node, core) == expected


def _world(cluster):
    return MpiWorld(Simulator(seed=0), cluster, costs=NUMA_PENALTY_COSTS)


def _overhead_of(world, body):
    """Simulated overhead seconds one process spends running ``body``."""
    process = world.sim.spawn(body)
    world.sim.run()
    assert process.finished
    return process.overhead_time


def test_shared_window_fail_over_charges_the_new_homes_penalties():
    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    world = _world(cluster)
    mpi = NUMA_PENALTY_COSTS.mpi
    net = world.interconnect
    window = world.create_shared_window(0, {"c": 0})  # home: rank 0
    ctx = world.contexts[1]  # shares rank 0's NUMA domain

    def epoch():
        yield from window.lock(ctx)
        yield window.access(ctx, n=3)
        yield window.unlock(ctx)
        window.release(ctx)

    assert net.load_penalty(1, 0) == net.atomic_penalty(1, 0) == 0.0
    assert _overhead_of(world, epoch()) == (
        mpi.shm_lock_attempt + 3 * mpi.shm_access + mpi.shm_unlock
    )
    assert window.total_penalty_s == 0.0

    window.fail_over(4)  # socket 1: remote NUMA + cross-socket from rank 1
    load, atomic = net.load_penalty(1, 4), net.atomic_penalty(1, 4)
    assert load > 0.0 and atomic > 0.0
    assert _overhead_of(world, epoch()) == (
        (mpi.shm_lock_attempt + atomic)
        + 3 * (mpi.shm_access + load)
        + (mpi.shm_unlock + atomic)
    )
    assert window.total_penalty_s == atomic + 3 * load + atomic


def test_lock_retries_keep_the_first_attempts_prices_across_fail_over():
    """Every retry of one acquisition is priced like its first attempt;
    a fail-over in between re-prices only the next acquisition."""
    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    world = _world(cluster)
    mpi = NUMA_PENALTY_COSTS.mpi
    window = world.create_shared_window(0, {"c": 0})  # home: rank 0
    holder, poller = world.contexts[0], world.contexts[1]
    assert window.try_lock(holder)
    prices = window.attempt(poller)  # rank 1 shares rank 0's NUMA domain
    assert prices[0].duration == mpi.shm_lock_attempt
    assert not window.try_lock(poller)

    window.fail_over(4)  # socket 1: remote NUMA + cross-socket from rank 1
    window.release(holder)
    poll_wait, retry = list(window.retry(poller, prices))
    assert poll_wait.duration == window.total_poll_wait > 0.0
    assert retry is prices[0]
    assert window.total_penalty_s == 0.0
    assert window.contention_stats()["max_attempts"] == 2

    atomic = world.interconnect.atomic_penalty(1, 4)
    assert atomic > 0.0
    assert window.unlock(poller).duration == mpi.shm_unlock + atomic
    assert window.attempt(poller)[0].duration == mpi.shm_lock_attempt + atomic


def test_rma_window_fail_over_charges_the_new_hosts_penalties():
    cluster = homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2)
    world = _world(cluster)
    mpi = NUMA_PENALTY_COSTS.mpi
    window = world.create_window(0, {"step": 0})
    ctx = world.contexts[1]  # same NUMA domain as the host

    def fetch():
        yield from window.fetch_and_op(ctx, "step", 1)

    assert _overhead_of(world, fetch()) == mpi.shm_atomic
    assert window.price_of(1)[:3] == (0.0, mpi.shm_atomic, False)

    window.fail_over(6)  # socket 1, numa 1 of node 0
    tier = world.interconnect.distance(1, 6)
    penalty = mpi.tier_atomic_penalty(tier)
    assert penalty > 0.0
    before = window.total_atomic_time_s
    assert _overhead_of(world, fetch()) == mpi.shm_atomic + penalty
    assert window.total_atomic_time_s == before + (mpi.shm_atomic + penalty)

    window.fail_over(8)  # node 1: network-remote, latency both ways
    latency = cluster.network_latency
    remote_penalty = mpi.tier_atomic_penalty(world.interconnect.distance(1, 8))
    assert window.price_of(1)[:3] == (latency, mpi.rma_atomic + remote_penalty, True)
    overhead = _overhead_of(world, fetch())
    assert overhead == latency + window.price_of(1)[1] + latency
    assert window.n_remote_atomics == 1
