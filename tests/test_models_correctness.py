"""Correctness invariants of every execution model.

The non-negotiable property: every iteration executes exactly once, for
every (approach x inter x intra) combination, on heterogeneous-enough
workloads and cluster shapes.
"""

import pytest

from repro import run_hierarchical
from repro.cluster.machine import heterogeneous, homogeneous
from repro.cluster.noise import NO_NOISE
from repro.core.chunking import verify_schedule
from repro.core.hierarchy import HierarchicalSpec
from repro.core.techniques import PAPER_TECHNIQUES
from repro.models import MpiOpenMpModel
from repro.workloads import (
    bimodal_workload,
    constant_workload,
    ramp_workload,
    uniform_workload,
)

APPROACHES = ("mpi+mpi", "mpi+openmp", "flat-mpi", "master-worker")
CLUSTER = homogeneous(2, 4)


def run(workload, approach, inter, intra, cluster=CLUSTER, ppn=4, **kw):
    return run_hierarchical(
        workload,
        cluster,
        inter=inter,
        intra=intra,
        approach=approach,
        ppn=ppn,
        seed=0,
        **kw,
    )


# ---------------------------------------------------------------------------
# exhaustive coverage grid over the paper's techniques
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("inter", PAPER_TECHNIQUES)
def test_all_inter_techniques_cover_iteration_space(approach, inter):
    wl = uniform_workload(500, seed=2)
    result = run(wl, approach, inter, "GSS")
    verify_schedule(result.subchunks, wl.n)
    assert result.parallel_time > 0


@pytest.mark.parametrize("approach", ("mpi+mpi", "mpi+openmp"))
@pytest.mark.parametrize("intra", PAPER_TECHNIQUES)
def test_all_intra_techniques_cover_iteration_space(approach, intra):
    wl = uniform_workload(500, seed=3)
    result = run(wl, approach, "GSS", intra)
    verify_schedule(result.subchunks, wl.n)


@pytest.mark.parametrize("approach", APPROACHES)
def test_single_iteration_loop(approach):
    wl = constant_workload(1)
    result = run(wl, approach, "GSS", "GSS")
    assert result.parallel_time > 0
    verify_schedule(result.subchunks, 1)


@pytest.mark.parametrize("approach", APPROACHES)
def test_fewer_iterations_than_workers(approach):
    wl = constant_workload(3)
    result = run(wl, approach, "FAC2", "SS")
    verify_schedule(result.subchunks, 3)


@pytest.mark.parametrize("approach", ("mpi+mpi", "mpi+openmp"))
def test_single_node_cluster(approach):
    wl = uniform_workload(200, seed=4)
    result = run(wl, approach, "GSS", "FAC2", cluster=homogeneous(1, 4))
    verify_schedule(result.subchunks, wl.n)
    assert result.n_nodes == 1


@pytest.mark.parametrize("approach", ("mpi+mpi", "flat-mpi"))
def test_heterogeneous_cluster_coverage(approach):
    cluster = heterogeneous([4, 4], core_speeds=[1.0, 2.0])
    wl = bimodal_workload(400, seed=5)
    result = run(wl, approach, "GSS", "GSS", cluster=cluster)
    verify_schedule(result.subchunks, wl.n)


def test_adaptive_inter_techniques_cover():
    for inter in ("AWF-B", "AWF-C", "AF", "WF", "RND"):
        wl = uniform_workload(300, seed=6)
        result = run(wl, "mpi+mpi", inter, "SS")
        verify_schedule(result.subchunks, wl.n)


def test_adaptive_intra_techniques_cover_mpi_mpi():
    for intra in ("AWF-B", "AF", "WF", "TFSS", "mFSC", "RND"):
        wl = uniform_workload(300, seed=7)
        result = run(wl, "mpi+mpi", "GSS", intra)
        verify_schedule(result.subchunks, wl.n)


def test_ramp_workload_coverage_all_models():
    wl = ramp_workload(256)
    for approach in APPROACHES:
        result = run(wl, approach, "TSS", "STATIC")
        verify_schedule(result.subchunks, wl.n)


# ---------------------------------------------------------------------------
# determinism & bookkeeping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", APPROACHES)
def test_runs_are_deterministic_given_seed(approach):
    wl = bimodal_workload(300, seed=8)
    a = run(wl, approach, "FAC2", "GSS")
    b = run(wl, approach, "FAC2", "GSS")
    assert a.parallel_time == b.parallel_time
    assert a.n_events == b.n_events


def test_different_seeds_differ():
    wl = bimodal_workload(300, seed=8)
    a = run_hierarchical(wl, CLUSTER, "FAC2", "GSS", approach="mpi+mpi", ppn=4, seed=1)
    b = run_hierarchical(wl, CLUSTER, "FAC2", "GSS", approach="mpi+mpi", ppn=4, seed=2)
    assert a.parallel_time != b.parallel_time


def test_result_metadata_complete():
    wl = uniform_workload(100, seed=9)
    result = run(wl, "mpi+mpi", "GSS", "SS")
    assert result.approach == "mpi+mpi"
    assert result.spec_label == "GSS+SS"
    assert result.workload == wl.name
    assert result.n_nodes == 2
    assert result.ppn == 4
    assert result.workers == 8
    assert result.n_events > 0
    assert "lock_acquisitions" in result.counters


def test_worker_stats_account_all_iterations():
    wl = uniform_workload(400, seed=10)
    result = run(wl, "mpi+mpi", "GSS", "FAC2")
    assert sum(w.n_iterations for w in result.metrics.workers) == wl.n
    assert all(w.finish_time <= result.parallel_time for w in result.metrics.workers)


def test_mpi_openmp_worker_count_is_threads_not_ranks():
    wl = uniform_workload(200, seed=11)
    result = run(wl, "mpi+openmp", "GSS", "SS")
    # 2 nodes x 4 threads = 8 workers even though there are only 2 ranks
    assert result.workers == 8


def test_collect_chunks_false_skips_lists_but_verifies_totals():
    wl = uniform_workload(200, seed=12)
    result = run(wl, "mpi+mpi", "GSS", "SS", collect_chunks=False)
    assert result.subchunks == []
    assert result.parallel_time > 0


def test_inter_chunks_recorded_per_node():
    wl = uniform_workload(300, seed=13)
    result = run(wl, "mpi+mpi", "GSS", "STATIC")
    assert result.chunks, "inter-level chunks must be recorded"
    assert {c.pe for c in result.chunks} <= {0, 1}
    assert sum(c.size for c in result.chunks) == wl.n


def test_static_inter_gives_one_chunk_per_node():
    """Paper: STATIC at the inter-node level = one scheduling round."""
    wl = uniform_workload(300, seed=14)
    for approach in ("mpi+mpi", "mpi+openmp"):
        result = run(wl, approach, "STATIC", "GSS")
        assert len(result.chunks) == 2  # one per node
        assert sorted(c.pe for c in result.chunks) == [0, 1]
        sizes = sorted(c.size for c in result.chunks)
        assert sizes == [150, 150]


# ---------------------------------------------------------------------------
# model-specific constraints
# ---------------------------------------------------------------------------


def test_intel_runtime_rejects_tss_intra():
    """The paper could not run X+TSS / X+FAC2 with MPI+OpenMP on the
    Intel stack — our model reproduces that constraint when asked."""
    from repro.sim import ProcessFailure
    from repro.somp import UnsupportedScheduleError

    wl = uniform_workload(100, seed=15)
    model = MpiOpenMpModel(intel_runtime=True)
    spec = HierarchicalSpec.of("GSS", "TSS")
    with pytest.raises((UnsupportedScheduleError, ProcessFailure)):
        model.run(workload=wl, cluster=CLUSTER, spec=spec, ppn=4)


def test_default_runtime_accepts_tss_intra():
    wl = uniform_workload(100, seed=16)
    result = run(wl, "mpi+openmp", "GSS", "TSS")
    verify_schedule(result.subchunks, wl.n)


def test_master_worker_needs_two_ranks():
    from repro.models import MasterWorkerModel

    wl = constant_workload(10)
    model = MasterWorkerModel()
    with pytest.raises(ValueError, match="at least 2 ranks"):
        model.run(
            workload=wl,
            cluster=homogeneous(1, 1),
            spec=HierarchicalSpec.of("GSS", "SS"),
            ppn=1,
        )


def test_master_worker_master_executes_nothing():
    wl = uniform_workload(200, seed=17)
    result = run(wl, "master-worker", "GSS", "SS")
    master = next(w for w in result.metrics.workers if "master" in w.name)
    assert master.n_iterations == 0
    assert master.compute_time == 0.0


def test_unknown_approach_rejected():
    wl = constant_workload(10)
    with pytest.raises(ValueError, match="unknown approach"):
        run(wl, "mpi+upc", "GSS", "SS")


def test_no_noise_mpi_openmp_static_static_is_analytic():
    """With all noise off, STATIC+STATIC on a constant workload must
    give a perfectly balanced execution: parallel time ~= serial / P."""
    wl = constant_workload(512, cost=1e-3)
    result = run_hierarchical(
        wl,
        homogeneous(2, 4),
        "STATIC",
        "STATIC",
        approach="mpi+openmp",
        ppn=4,
        seed=0,
        noise=NO_NOISE,
    )
    ideal = wl.total_cost / 8
    assert result.parallel_time == pytest.approx(ideal, rel=1e-2)


# ---------------------------------------------------------------------------
# a finished run is freed by reference counting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "approach,stack,kw",
    [
        ("mpi+mpi", "SS+GSS", {"noise": NO_NOISE, "engine": "cohort"}),
        ("dcc", "GSS+SS", {"noise": NO_NOISE, "engine": "cohort"}),
        ("mpi+mpi", "GSS+SS", {}),
        ("mpi+mpi", "FAC2+SS", {"faults": "crash:5@0.0005,slow:2@0.0002:0.5"}),
        ("mpi+openmp", "GSS+FAC2+SS", {}),
        ("dcc", "GSS+SS", {}),
        ("flat-mpi", "FAC2", {}),
        ("master-worker", "GSS", {}),
    ],
)
def test_finished_run_needs_no_cyclic_collector(monkeypatch, approach, stack, kw):
    """With the cyclic collector off, the run's MPI world and simulator
    die with the last reference to its result: their reference cycles
    (ranks <-> world, processes <-> simulator) are broken when the run
    ends, so a sweep of large runs never holds two runs' worth."""
    import gc
    import weakref

    from repro.smpi.world import MpiWorld

    made = []
    init = MpiWorld.__init__

    def recording_init(self, sim, *args, **kwargs):
        init(self, sim, *args, **kwargs)
        made.append((weakref.ref(self), weakref.ref(sim)))

    monkeypatch.setattr(MpiWorld, "__init__", recording_init)
    cluster = homogeneous(2, 4, sockets_per_node=2)
    workload = uniform_workload(800, low=1e-5, high=1e-4, seed=1)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_hierarchical(
            workload, cluster, stack, approach=approach, ppn=4, seed=0, **kw
        )
        assert made and result.parallel_time > 0
        del result
        alive = [name for world, sim in made
                 for name, ref in (("world", world), ("simulator", sim))
                 if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert alive == []
