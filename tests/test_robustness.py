"""Robustness & failure-injection tests.

Hostile noise, degenerate cluster shapes, pathological workloads, and
misuse of the simulated runtimes: the library must either work
correctly or fail loudly — never hang or silently drop iterations.
"""

import numpy as np
import pytest

from repro import run_hierarchical
from repro.cluster.costs import CostModel
from repro.cluster.machine import heterogeneous, homogeneous
from repro.cluster.noise import HARSH_NOISE, NoiseModel
from repro.core.chunking import verify_schedule
from repro.core.hierarchy import LevelSpec
from repro.core.workqueue import TierQueue, WorkChunk
from repro.sim import ProcessFailure
from repro.workloads import (
    Workload,
    banded_workload,
    constant_workload,
    exponential_workload,
)


# ---------------------------------------------------------------------------
# noise robustness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", ["mpi+mpi", "mpi+openmp"])
def test_harsh_noise_preserves_correctness(approach):
    wl = exponential_workload(500, mu=1e-3, seed=1)
    result = run_hierarchical(
        wl, homogeneous(2, 4), "GSS", "GSS", approach=approach, ppn=4,
        noise=HARSH_NOISE, seed=3,
    )
    verify_schedule(result.subchunks, wl.n)


def test_extreme_jitter_still_terminates():
    noise = NoiseModel(per_core_sigma=0.3, jitter_sigma=0.8, seed_tag="x")
    wl = constant_workload(300, cost=1e-3)
    result = run_hierarchical(
        wl, homogeneous(2, 4), "FAC2", "SS", approach="mpi+mpi", ppn=4,
        noise=noise, seed=4,
    )
    verify_schedule(result.subchunks, wl.n)
    assert result.parallel_time > 0


def test_dynamic_techniques_absorb_noise_better_than_static():
    """The paper's premise: under systemic variation, DLS beats SLS."""
    noise = NoiseModel(per_core_sigma=0.15, jitter_sigma=0.3, seed_tag="p")
    wl = constant_workload(2048, cost=1e-3)
    cluster = homogeneous(2, 8)
    static = run_hierarchical(
        wl, cluster, "STATIC", "STATIC", approach="mpi+mpi", ppn=8,
        noise=noise, seed=5, collect_chunks=False,
    )
    dynamic = run_hierarchical(
        wl, cluster, "FAC2", "GSS", approach="mpi+mpi", ppn=8,
        noise=noise, seed=5, collect_chunks=False,
    )
    assert dynamic.parallel_time < static.parallel_time
    assert dynamic.metrics.cov_finish < static.metrics.cov_finish


# ---------------------------------------------------------------------------
# pathological workloads
# ---------------------------------------------------------------------------


def test_zero_cost_iterations_complete_instantly():
    wl = Workload("zero", np.zeros(64))
    result = run_hierarchical(
        wl, homogeneous(2, 4), "GSS", "SS", approach="mpi+mpi", ppn=4,
    )
    verify_schedule(result.subchunks, 64)
    # only scheduling overhead remains
    assert result.parallel_time < 0.05


def test_single_giant_iteration_bounds_parallel_time():
    costs = np.full(256, 1e-4)
    costs[100] = 1.0  # one iteration dominates everything
    wl = Workload("spike", costs)
    from repro.cluster.noise import NO_NOISE

    result = run_hierarchical(
        wl, homogeneous(2, 4), "FAC2", "SS", approach="mpi+mpi", ppn=4,
        noise=NO_NOISE,
    )
    assert result.parallel_time >= 1.0
    assert result.parallel_time < 1.2  # everything else overlaps the spike


def test_adversarial_band_still_covered():
    wl = banded_workload(512, fast=1e-5, slow=5e-3, band=(0.0, 0.1))
    for approach in ("mpi+mpi", "mpi+openmp", "flat-mpi"):
        result = run_hierarchical(
            wl, homogeneous(2, 4), "GSS", "STATIC", approach=approach, ppn=4,
        )
        verify_schedule(result.subchunks, wl.n)


# ---------------------------------------------------------------------------
# degenerate clusters / costs
# ---------------------------------------------------------------------------


def test_one_core_cluster_serialises():
    wl = constant_workload(100, cost=1e-3)
    result = run_hierarchical(
        wl, homogeneous(1, 1), "GSS", "SS", approach="mpi+mpi", ppn=1,
    )
    assert result.parallel_time >= wl.total_cost


def test_free_communication_costs():
    """All-zero cost tables: pure workload time remains."""
    zero = CostModel().with_overrides(
        **{
            "mpi.shm_lock_attempt": 0.0, "mpi.shm_unlock": 0.0,
            "mpi.shm_win_sync": 0.0, "mpi.shm_access": 0.0,
            "mpi.shm_atomic": 0.0, "mpi.rma_atomic": 0.0,
            "omp.atomic": 0.0, "omp.fork": 0.0,
            "omp.worksharing_init": 0.0, "omp.barrier_base": 0.0,
            "omp.barrier_log": 0.0, "chunk_calc": 0.0,
        }
    )
    wl = constant_workload(256, cost=1e-3)
    from repro.cluster.noise import NO_NOISE

    result = run_hierarchical(
        wl, homogeneous(2, 4), "FAC2", "SS", approach="mpi+mpi", ppn=4,
        costs=zero, noise=NO_NOISE,
    )
    assert result.parallel_time == pytest.approx(wl.total_cost / 8, rel=0.02)


def test_gigantic_lock_costs_slow_but_correct():
    expensive = CostModel().with_overrides(**{"mpi.shm_poll_interval": 5e-3})
    wl = constant_workload(200, cost=1e-4)
    result = run_hierarchical(
        wl, homogeneous(1, 8), "FAC2", "SS", approach="mpi+mpi", ppn=8,
        costs=expensive,
    )
    verify_schedule(result.subchunks, wl.n)


# ---------------------------------------------------------------------------
# tier-queue unit behaviour (the queue every engine carves through)
# ---------------------------------------------------------------------------


def make_queue():
    return TierQueue(LevelSpec.of("GSS"), n_children=4)


def test_local_queue_take_from_empty():
    queue = make_queue()
    assert queue.take(0) is None


def test_local_queue_deposit_take_exhaust():
    queue = make_queue()
    queue.deposit(src_step=0, start=100, size=40, ancestors=())
    taken = []
    while True:
        sub = queue.take(0)
        if sub is None:
            break
        _head, start, size, _step = sub
        taken.append((start, size))
    assert sum(z for _, z in taken) == 40
    assert taken[0][0] == 100
    # contiguity
    cursor = 100
    for s, z in taken:
        assert s == cursor
        cursor += z


def test_local_queue_multiple_deposits_fifo():
    queue = make_queue()
    queue.deposit(0, 0, 10, ())
    queue.deposit(1, 50, 10, ())
    firsts = [queue.take(0)[1] for _ in range(2)]
    assert firsts[0] < 50  # head chunk drains first


def test_queued_chunk_remaining():
    from repro.core.techniques import get_technique

    chunk = WorkChunk(0, 10, get_technique("SS").make(10, 2), src_step=0)
    assert chunk.remaining == 10
    chunk.taken = 4
    assert chunk.remaining == 6
