"""Tests for the distributed chunk calculation execution model (dCC).

dCC (arXiv 2101.07050) flattens the hierarchical level stack into one
serial leaf sequence and dispenses it from a single fetch-and-op step
counter; every rank resolves start/size locally.  The pinned property:
for deterministic stacks the produced chunk *set* is identical to the
hierarchical mpi+mpi run of the same spec — only the rank assignment
differs.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_hierarchical
from repro.cluster.machine import minihpc
from repro.core.chunking import verify_schedule
from repro.workloads import Workload

#: deterministic, profile-free techniques dCC can flatten — including
#: the staged roster additions and seeded RND (its schedule is a pure
#: function of the spec, so every rank materialises the same sequence)
DETERMINISTIC = [
    "STATIC", "SS", "GSS", "TSS", "FAC2", "mFSC", "TFSS",
    "FISS", "VISS", "RND",
]

workloads = st.builds(
    lambda costs: Workload("prop", np.asarray(costs)),
    st.lists(
        st.floats(min_value=1e-6, max_value=5e-3, allow_nan=False),
        min_size=1,
        max_size=300,
    ),
)


def chunk_set(result):
    return sorted((c.start, c.size) for c in result.subchunks)


# ---------------------------------------------------------------------------
# the tentpole property: dCC == mpi+mpi chunk sets, any depth
# ---------------------------------------------------------------------------
@given(
    wl=workloads,
    levels=st.lists(st.sampled_from(DETERMINISTIC), min_size=1, max_size=4),
    nodes=st.integers(min_value=1, max_value=3),
    per_leaf=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_dcc_matches_mpi_mpi_chunk_set(wl, levels, nodes, per_leaf, seed):
    """Random deterministic stacks over random depth-1..4 machine
    topologies: both models produce the same verify_schedule-clean
    chunk set."""
    depth = len(levels)
    sockets = 2 if depth >= 3 else 1
    numa = 2 if depth >= 4 else 1
    ppn = sockets * numa * per_leaf
    cluster = minihpc(
        nodes, ppn, sockets_per_node=sockets, numa_per_socket=numa
    )
    stack = "+".join(levels)
    dcc = run_hierarchical(
        wl, cluster, inter=stack, approach="dcc", ppn=ppn, seed=seed
    )
    mpi = run_hierarchical(
        wl, cluster, inter=stack, approach="mpi+mpi", ppn=ppn, seed=seed
    )
    verify_schedule(dcc.subchunks, wl.n)
    verify_schedule(mpi.subchunks, wl.n)
    assert chunk_set(dcc) == chunk_set(mpi)
    assert sum(c.size for c in dcc.subchunks) == wl.n


@given(wl=workloads, seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_dcc_bit_deterministic(wl, seed):
    a = run_hierarchical(wl, minihpc(2, 4), inter="GSS+FAC2",
                         approach="dcc", ppn=4, seed=seed)
    b = run_hierarchical(wl, minihpc(2, 4), inter="GSS+FAC2",
                         approach="dcc", ppn=4, seed=seed)
    assert a.parallel_time == b.parallel_time
    assert a.n_events == b.n_events
    assert [c.start for c in a.subchunks] == [c.start for c in b.subchunks]


def test_dcc_counter_accounting():
    """Exactly one atomic per dispensed step plus one exhausted fetch
    per rank — the O(1)-per-chunk traffic signature of dCC."""
    wl = Workload("acct", np.full(500, 1e-4))
    result = run_hierarchical(wl, minihpc(2, 8), inter="GSS+SS",
                              approach="dcc", ppn=8)
    steps = result.counters["dcc_steps"]
    assert steps > 0
    assert result.counters["global_atomics"] == steps + 2 * 8
    assert len(result.subchunks) == steps


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "technique",
    [
        "ADAPT", "AWF-B", "AF", "WF",
        # roster additions that need runtime feedback: TAP estimates
        # (mu, sigma) online; configured ladders are still selectors
        "TAP", "ADAPT[ss,fac2]", "ADAPT[ss,fac2,gss,tss,dwell=2]",
    ],
)
def test_dcc_rejects_adaptive_and_pe_dependent(technique):
    wl = Workload("adapt", np.full(100, 1e-4))
    kwargs = {}
    if technique == "WF":
        kwargs["inter_weights"] = [1.0, 2.0]
    with pytest.raises(ValueError, match="dcc"):
        run_hierarchical(wl, minihpc(2, 4), inter="GSS", intra=technique,
                         approach="dcc", ppn=4, **kwargs)


def test_dcc_flattens_roster_newcomers_to_mpi_mpi_chunk_sets():
    """FISS/VISS/seeded-RND stacks flatten and match mpi+mpi exactly."""
    wl = Workload("roster", np.full(700, 1e-4))
    cluster = minihpc(2, 4)
    for stack in ("FISS+SS", "VISS+GSS", "RND+FAC2", "GSS+RND"):
        dcc = run_hierarchical(wl, cluster, inter=stack, approach="dcc",
                               ppn=4, seed=3)
        mpi = run_hierarchical(wl, cluster, inter=stack, approach="mpi+mpi",
                               ppn=4, seed=3)
        verify_schedule(dcc.subchunks, wl.n)
        assert chunk_set(dcc) == chunk_set(mpi), stack


def test_dcc_rejects_stacks_deeper_than_machine_tiers():
    wl = Workload("deep", np.full(100, 1e-4))
    with pytest.raises(ValueError, match="at most 4 levels"):
        run_hierarchical(
            wl, minihpc(2, 8, sockets_per_node=2, numa_per_socket=2),
            inter="GSS+FAC2+FAC2+FAC2+STATIC", approach="dcc", ppn=8,
        )


@pytest.mark.parametrize(
    "stack, message",
    [
        ("GSS+FAC2+SS", "ranks-per-socket group sizes differ ([2, 4])"),
        ("GSS+FAC2+FAC2+SS", "numa-per-socket group sizes differ ([1, 2])"),
    ],
)
def test_dcc_rejects_uneven_tier_groups(stack, message):
    """ppn=6 on 2 sockets x 2 NUMA domains of 2 cores leaves sockets of
    4 and 2 ranks: the flattened sequence needs one fanout per tier."""
    wl = Workload("uneven", np.full(100, 1e-4))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_hierarchical(
            wl, minihpc(2, 8, sockets_per_node=2, numa_per_socket=2),
            inter=stack, approach="dcc", ppn=6,
        )


# ---------------------------------------------------------------------------
# fault tolerance: claims via on_commit, counter-window failover
# ---------------------------------------------------------------------------
def test_dcc_completes_on_survivors_after_crashes():
    wl = Workload("faulty", np.full(800, 2e-4))
    result = run_hierarchical(
        wl, minihpc(2, 4), inter="GSS+FAC2", approach="dcc", ppn=4,
        faults="crash:5@0.0005,crash:6@0.001", max_sim_time=30.0,
    )
    verify_schedule(result.subchunks, wl.n)
    assert result.counters["failures_injected"] == 2
    assert sorted(result.counters["dead_ranks"]) == [5, 6]


def test_dcc_counter_window_fails_over_when_host_dies():
    wl = Workload("failover", np.full(800, 2e-4))
    result = run_hierarchical(
        wl, minihpc(2, 4), inter="GSS+FAC2", approach="dcc", ppn=4,
        faults="crash:0@0.0005", max_sim_time=30.0,
    )
    verify_schedule(result.subchunks, wl.n)
    assert result.counters["failovers"] >= 1
    # rank 0 hosted the counter; after failover the home is a live rank
    assert result.counters["window_homes"]["global"] != 0


def test_dcc_faulted_run_reexecutes_stranded_ranges():
    wl = Workload("stranded", np.full(1200, 3e-4))
    fault_free = run_hierarchical(wl, minihpc(2, 4), inter="SS",
                                  approach="dcc", ppn=4)
    faulted = run_hierarchical(
        wl, minihpc(2, 4), inter="SS", approach="dcc", ppn=4,
        faults="crash:1@0.002,crash:2@0.003", max_sim_time=30.0,
    )
    verify_schedule(faulted.subchunks, wl.n)
    assert faulted.counters["chunks_reexecuted"] >= 1
    assert faulted.parallel_time >= fault_free.parallel_time


# ---------------------------------------------------------------------------
# placement pricing of the counter window
# ---------------------------------------------------------------------------
def test_dcc_reports_priced_counter_traffic():
    wl = Workload("priced", np.full(400, 1e-4))
    result = run_hierarchical(wl, minihpc(2, 4), inter="GSS",
                              approach="dcc", ppn=4)
    assert result.counters["placement_cost_s"] > 0
    assert result.counters["placement_cost_s"] == pytest.approx(
        result.counters["global_atomic_time_s"]
    )
    assert result.counters["lock_penalty_s"] == 0.0
    assert result.counters["window_homes"] == {"global": 0}


def test_dcc_optimized_placement_runs_and_reports():
    wl = Workload("opt", np.full(400, 1e-4))
    result = run_hierarchical(wl, minihpc(2, 4), inter="GSS",
                              approach="dcc", ppn=4, placement="optimized")
    verify_schedule(result.subchunks, wl.n)
    assert result.counters["placement"] == "optimized"
    assert "placement_objective_s" in result.counters


# ---------------------------------------------------------------------------
# experiments threading: cache key discrimination + GridRunner field
# ---------------------------------------------------------------------------
def test_cell_key_discriminates_v6_roster_fields():
    """v6 keys: ladder spellings are distinct cache cells, and the
    format version itself moved past the pre-roster caches."""
    from repro.experiments.parallel import (
        CACHE_FORMAT_VERSION,
        cell_key,
        workload_fingerprint,
    )

    assert CACHE_FORMAT_VERSION == 6
    wl = Workload("keys6", np.full(100, 1e-4))
    fp = workload_fingerprint(wl)
    cluster = minihpc(2, 4)
    keys = {
        cell_key(fp, cluster, "mpi+mpi", "GSS", intra, 2, 4, 0)
        for intra in (
            "ADAPT",
            "ADAPT[ss,fac2]",
            "ADAPT[ss,fac2,dwell=2]",
            "ADAPT[ss,fac2,gss,tss]",
            "FISS",
            "VISS",
            "RND",
            "TAP",
        )
    }
    assert len(keys) == 8


def test_grid_runner_dcc_sweep(tmp_path):
    from repro.experiments.harness import GridRunner

    wl = Workload("grid", np.full(300, 1e-4))
    def sweep(approach):
        runner = GridRunner(
            workload=wl, ppn=4, node_counts=(2,), cache_dir=str(tmp_path),
        )
        cells = runner.sweep("GSS", ["SS"], [(approach, lambda intra: True)])
        return runner, cells

    _, cells = sweep("dcc")
    assert len(cells) == 1 and cells[0].time > 0
    assert cells[0].approach == "dcc"
    # the cache round-trips under the dcc cell's key
    again_runner, again = sweep("dcc")
    assert again_runner.last_sweep_stats["cache_hits"] == 1
    assert again[0].same_result(cells[0])
    # and an mpi+mpi sweep of the same grid must not be served from it
    plain, plain_cells = sweep("mpi+mpi")
    assert plain.last_sweep_stats["cache_hits"] == 0
    assert plain_cells[0].approach == "mpi+mpi"
    assert plain_cells[0].time != cells[0].time


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_approach_dcc(capsys):
    from repro.cli import main

    code = main([
        "run", "--approach", "dcc", "--techniques", "GSS+FAC2",
        "--nodes", "2", "--ppn", "4", "--scale", "tiny",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "dcc" in out


# ---------------------------------------------------------------------------
# the contention sweep (figures variant)
# ---------------------------------------------------------------------------
def test_dcc_variant_sweep_passes_checks():
    from repro.experiments.figures import dcc_variant, run_variant

    result = run_variant(dcc_variant("fig5a"), scale="tiny")
    assert result.cells
    text = result.to_text()
    assert "dcc" in text and "master-worker" in text
    assert result.all_passed, text
