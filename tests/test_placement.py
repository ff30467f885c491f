"""Penalty-aware queue placement: optimizer, threading, bit-exactness.

Three guarantees pinned here:

* **never worse** — for random depth-1..4 topologies (heterogeneous
  speeds, partial occupancy, random non-negative penalty knobs) the
  optimized plan's predicted objective never exceeds the leader
  plan's, and on symmetric topologies the decision rule moves nothing;
* **bit-exact default** — ``placement="leader"`` replays sampled
  configurations of *both* differential goldens unchanged (the knob's
  default cannot perturb any pre-existing result);
* **real wins move real windows** — on an asymmetric (heterogeneous
  speed) cluster the optimizer provably moves the global window off
  the slow node and the *measured* priced queue cost drops under
  ``CALIBRATED_COSTS``.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_hierarchical
from repro.cluster.costs import CALIBRATED_COSTS, DEFAULT_COSTS, MpiCosts
from repro.cluster.machine import heterogeneous, homogeneous
from repro.cluster.placement_opt import (
    GLOBAL_WINDOW,
    explicit_plan,
    leader_plan,
    predict_profile,
    resolve_placement,
    solve_placement,
)
from repro.core.hierarchy import HierarchicalSpec
from repro.workloads import uniform_workload

from dataclasses import replace as dc_replace


def _workload(n=240):
    return uniform_workload(n, low=5e-5, high=2e-3, seed=3)


def _asymmetric_cluster(numa=2):
    """2 nodes, node 0 slow — the leader global host is a poor home."""
    return heterogeneous(
        [8, 8], [0.6, 1.4], socket_counts=[2, 2], numa_counts=[numa, numa]
    )


# ---------------------------------------------------------------------------
# hypothesis: optimized <= leader on random topologies and stacks
# ---------------------------------------------------------------------------
topologies = st.tuples(
    st.integers(min_value=1, max_value=3),     # nodes
    st.sampled_from([1, 2]),                   # sockets/node
    st.sampled_from([1, 2]),                   # numa/socket
    st.integers(min_value=1, max_value=2),     # cores/numa
    st.sampled_from([(1.0,), (0.5, 2.0), (1.0, 0.25, 3.0)]),  # speed cycle
)

stacks = st.lists(
    st.sampled_from(["STATIC", "SS", "GSS", "FAC2", "TSS"]),
    min_size=1,
    max_size=4,
).map("+".join)

knob_values = st.floats(min_value=0.0, max_value=5e-6, allow_nan=False)


def _cluster_of(topo):
    nodes, sockets, numa, cpn, speeds = topo
    cores = sockets * numa * cpn
    return heterogeneous(
        core_counts=[cores] * nodes,
        core_speeds=[speeds[i % len(speeds)] for i in range(nodes)],
        socket_counts=[sockets] * nodes,
        numa_counts=[numa] * nodes,
    )


@given(topo=topologies, stack=stacks, knobs=st.tuples(knob_values, knob_values, knob_values))
@settings(max_examples=50, deadline=None)
def test_optimized_objective_never_exceeds_leader(topo, stack, knobs):
    cluster = _cluster_of(topo)
    costs = DEFAULT_COSTS.with_overrides(
        **{
            "mpi.remote_numa_load_penalty": knobs[0],
            "mpi.remote_numa_atomic_penalty": knobs[1],
            "mpi.cross_socket_penalty": knobs[2],
        }
    )
    spec = HierarchicalSpec.parse(stack)
    optimized = solve_placement(spec, 500, cluster, costs=costs)
    leader = leader_plan(spec, 500, cluster, costs=costs)
    assert optimized.objective <= leader.objective + 1e-15
    # every moved window must be a *strict* predicted improvement
    if not optimized.moved:
        assert optimized.homes == leader.homes
        assert optimized.global_host == 0


@given(topo=topologies, stack=stacks)
@settings(max_examples=30, deadline=None)
def test_symmetric_topologies_keep_leader_homes(topo, stack):
    """With one common speed the machine is symmetric under block
    placement, so the decision rule must not move anything."""
    nodes, sockets, numa, cpn, _speeds = topo
    cluster = homogeneous(
        nodes, sockets * numa * cpn, sockets_per_node=sockets,
        numa_per_socket=numa,
    )
    plan = solve_placement(
        HierarchicalSpec.parse(stack), 500, cluster, costs=CALIBRATED_COSTS
    )
    assert plan.moved == ()
    assert plan.global_host == 0


def test_pinned_root_profiles_tier_traffic_and_validates_explicit_maps():
    """A pinned STATIC root never touches the global window, but each
    node still receives its chunk — tier queues have real traffic, and
    every window the model builds must exist in the profile so explicit
    maps for it validate (regression: zero deposits used to prune the
    subtree)."""
    cluster = _asymmetric_cluster(numa=1)
    spec = HierarchicalSpec.parse("STATIC+FAC2+SS")
    profile = predict_profile(spec, 240, cluster, ppn=8)
    assert sum(profile.window(GLOBAL_WINDOW).atomics.values()) == 0
    assert sum(profile.window(0).atomics.values()) > 0
    assert {(0, 0), (1, 1)} <= {w.key for w in profile.windows}
    wl = _workload()
    result = run_hierarchical(
        wl, cluster, inter="STATIC+FAC2+SS", approach="mpi+mpi", ppn=8,
        seed=0, placement={(1, 1): 12},
    )
    assert result.counters["window_homes"][(1, 1)] == 12


def test_profile_covers_every_window_of_the_tree():
    cluster = _asymmetric_cluster()
    profile = predict_profile(
        HierarchicalSpec.parse("GSS+FAC2+FAC2+SS"), 500, cluster, ppn=8
    )
    keys = {w.key for w in profile.windows}
    assert GLOBAL_WINDOW in keys
    assert {0, 1} <= keys                       # node windows
    assert {(0, 0), (1, 1)} <= keys             # socket windows
    assert {(0, 0, 0), (1, 1, 1)} <= keys       # NUMA windows
    # faster node attracts proportionally more predicted global fetches
    global_profile = profile.window(GLOBAL_WINDOW)
    node0 = sum(v for r, v in global_profile.atomics.items() if r < 8)
    node1 = sum(v for r, v in global_profile.atomics.items() if r >= 8)
    assert node1 == pytest.approx(node0 * (1.4 / 0.6))


# ---------------------------------------------------------------------------
# bit-exactness: placement="leader" replays both goldens unchanged
# ---------------------------------------------------------------------------
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SEED_CLUSTERS = {
    "homog-2x4": lambda: homogeneous(2, 4),
    "homog-3x4": lambda: homogeneous(3, 4),
    "hetero-2": lambda: heterogeneous([4, 4], [1.0, 1.5]),
}
DEPTH_CLUSTERS = {
    "flat-2x8": lambda: homogeneous(2, 8),
    "sock-2x8s2": lambda: homogeneous(2, 8, sockets_per_node=2),
    "numa-2x8s2m2": lambda: homogeneous(
        2, 8, sockets_per_node=2, numa_per_socket=2
    ),
    "numa-1x16s4m2": lambda: homogeneous(
        1, 16, sockets_per_node=4, numa_per_socket=2
    ),
}


def _chunk_digest(result):
    payload = ";".join(
        f"{c.step},{c.start},{c.size},{c.pe}" for c in result.chunks
    ) + "|" + ";".join(
        f"{c.step},{c.start},{c.size},{c.pe}" for c in result.subchunks
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _level_chunk_digest(result):
    payload = "|".join(
        ";".join(f"{c.step},{c.start},{c.size},{c.pe}" for c in level)
        for level in result.level_chunks
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _sample(golden, predicate, k):
    keys = sorted(key for key in golden if predicate(key))
    step = max(1, len(keys) // k)
    return keys[::step][:k]


def test_explicit_leader_matches_seed_golden_bit_for_bit():
    with open(os.path.join(GOLDEN_DIR, "seed_runresults.json")) as fh:
        golden = json.load(fh)
    wl = _workload()
    for key in _sample(golden, lambda k: k.startswith("mpi+mpi/"), 8):
        approach, inter, intra, cluster_id, ppn, seed = key.split("/")
        want = golden[key]
        result = run_hierarchical(
            wl,
            SEED_CLUSTERS[cluster_id](),
            inter=inter,
            intra=intra,
            approach=approach,
            ppn=int(ppn),
            seed=int(seed),
            placement="leader",
        )
        assert result.parallel_time.hex() == want["parallel_time"], key
        assert result.n_events == want["n_events"], key
        assert _chunk_digest(result) == want["chunk_digest"], key


def test_explicit_leader_matches_depth_golden_bit_for_bit():
    with open(os.path.join(GOLDEN_DIR, "depth_runresults.json")) as fh:
        golden = json.load(fh)
    wl = _workload()
    for key in _sample(golden, lambda k: k.startswith("mpi+mpi/"), 6):
        approach, stack, cluster_id, ppn, seed = key.split("/")
        want = golden[key]
        result = run_hierarchical(
            wl,
            DEPTH_CLUSTERS[cluster_id](),
            inter=stack,
            approach=approach,
            ppn=int(ppn),
            seed=int(seed),
            placement="leader",
        )
        assert result.parallel_time.hex() == want["parallel_time"], key
        assert result.n_events == want["n_events"], key
        assert _level_chunk_digest(result) == want["chunk_digest"], key


def test_optimized_on_symmetric_topology_is_bit_exact_too():
    """When the decision rule moves nothing, threading the (identical)
    homes through the windows must not change a single event."""
    wl = _workload()
    cluster = homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2)
    base = run_hierarchical(
        wl, cluster, inter="GSS+FAC2+SS", approach="mpi+mpi", ppn=8, seed=0
    )
    optimized = run_hierarchical(
        wl, cluster, inter="GSS+FAC2+SS", approach="mpi+mpi", ppn=8, seed=0,
        placement="optimized",
    )
    assert optimized.parallel_time == base.parallel_time
    assert optimized.n_events == base.n_events
    assert optimized.counters["placement"] == "optimized"


# ---------------------------------------------------------------------------
# asymmetric-topology regression: the optimizer provably moves a window
# ---------------------------------------------------------------------------
def test_optimizer_moves_global_window_off_the_slow_node():
    cluster = _asymmetric_cluster()
    spec = HierarchicalSpec.parse("FAC2+FAC2+FAC2+SS")
    plan = solve_placement(spec, 240, cluster, ppn=8, costs=CALIBRATED_COSTS)
    assert GLOBAL_WINDOW in plan.moved
    assert plan.global_host >= 8  # a rank of the fast node
    assert plan.objective < leader_plan(
        spec, 240, cluster, ppn=8, costs=CALIBRATED_COSTS
    ).objective


def test_optimized_reduces_measured_priced_cost_on_asymmetric_cluster():
    wl = _workload()
    cluster = _asymmetric_cluster()
    common = dict(
        inter="GSS+FAC2+FAC2+STATIC", approach="mpi+mpi", ppn=8, seed=0,
        costs=CALIBRATED_COSTS,
    )
    lead = run_hierarchical(wl, cluster, **common)
    opt = run_hierarchical(wl, cluster, **common, placement="optimized")
    assert opt.counters["window_homes"]["global"] >= 8
    assert lead.counters["window_homes"]["global"] == 0
    assert (
        opt.counters["placement_cost_s"] < lead.counters["placement_cost_s"]
    )
    # both still execute the full loop correctly (RunResult verifies)
    assert opt.parallel_time > 0


def test_placement_variant_sweep_passes_on_asymmetric_topology():
    from repro.experiments.figures import placement_variant, run_variant

    spec = placement_variant("fig5a", node_counts=(2,))
    first = spec.points[0].panel  # one panel suffices
    spec = dc_replace(
        spec, points=tuple(p for p in spec.points if p.panel == first)
    )
    result = run_variant(spec, scale="tiny")
    assert result.all_passed, result.to_text()
    text = result.to_text()
    assert "optimized" in text and "leader" in text


# ---------------------------------------------------------------------------
# explicit maps, validation, and the unsupported-model guard
# ---------------------------------------------------------------------------
def test_explicit_map_pins_window_homes():
    wl = _workload()
    cluster = _asymmetric_cluster(numa=1)
    result = run_hierarchical(
        wl, cluster, inter="FAC2+SS", approach="mpi+mpi", ppn=8, seed=0,
        placement={"global": 8, 1: 12},
    )
    homes = result.counters["window_homes"]
    assert homes["global"] == 8
    assert homes[1] == 12
    assert homes[0] == 0  # unmapped windows keep their leader
    assert result.counters["placement"] == "explicit"


def test_explicit_map_rejects_non_members_and_unknown_windows():
    cluster = _asymmetric_cluster(numa=1)
    spec = HierarchicalSpec.parse("FAC2+SS")
    with pytest.raises(ValueError, match="not a member"):
        explicit_plan({0: 12}, spec, 240, cluster, ppn=8)
    with pytest.raises(ValueError, match="unknown window"):
        explicit_plan({(5, 1): 0}, spec, 240, cluster, ppn=8)
    with pytest.raises(ValueError, match="outside world"):
        explicit_plan({"global": 99}, spec, 240, cluster, ppn=8)


def test_unknown_placement_values_raise():
    cluster = _asymmetric_cluster(numa=1)
    spec = HierarchicalSpec.parse("FAC2+SS")
    with pytest.raises(ValueError, match="unknown placement"):
        resolve_placement("centroid", spec, 240, cluster)
    with pytest.raises(TypeError, match="string or mapping"):
        resolve_placement(42, spec, 240, cluster)


@pytest.mark.parametrize("approach", ["mpi+openmp", "flat-mpi", "master-worker"])
def test_non_mpimpi_models_reject_optimized_placement(approach):
    wl = _workload()
    with pytest.raises(ValueError, match="tier leaders only"):
        run_hierarchical(
            wl, homogeneous(2, 4), inter="GSS", intra="STATIC",
            approach=approach, ppn=4, seed=0, placement="optimized",
        )


def test_leader_objective_is_priced_with_zero_knobs_too():
    """Under distance-blind costs only the global window costs anything,
    and moving it still helps on asymmetric clusters (network vs local
    atomics) — the objective is not identically zero."""
    cluster = _asymmetric_cluster(numa=1)
    spec = HierarchicalSpec.parse("FAC2+SS")
    lead = leader_plan(spec, 500, cluster, ppn=8, costs=DEFAULT_COSTS)
    opt = solve_placement(spec, 500, cluster, ppn=8, costs=DEFAULT_COSTS)
    assert lead.objective > 0
    assert opt.objective < lead.objective


# ---------------------------------------------------------------------------
# native runner: the placement knob on the priced lock ledger
# ---------------------------------------------------------------------------
def test_native_placement_knob_reports_homes_and_prices_ledger():
    from repro.core.hierarchy import HierarchicalSpec as Spec
    from repro.native import NativeRunner
    from repro.workloads import mandelbrot_workload

    wl = mandelbrot_workload(width=24, height=24, max_iter=32)
    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    spec = Spec.parse("GSS+FAC2+SS")
    runner = NativeRunner(wl, n_workers=8)
    leader = runner.run_hierarchical(
        spec, topology=cluster, costs=CALIBRATED_COSTS
    )
    assert leader.group_homes is not None
    assert leader.group_homes[(0, 0)] == (0, 0, 0)  # leader first-touch
    optimized = NativeRunner(wl, n_workers=8).run_hierarchical(
        spec, topology=cluster, costs=CALIBRATED_COSTS, placement="optimized"
    )
    # symmetric machine: the decision rule keeps every leader home
    assert optimized.group_homes == leader.group_homes
    leader.verify(wl.n)
    optimized.verify(wl.n)


def test_native_explicit_home_map_changes_the_priced_ledger():
    from repro.core.hierarchy import HierarchicalSpec as Spec
    from repro.native import NativeRunner
    from repro.workloads import mandelbrot_workload

    wl = mandelbrot_workload(width=24, height=24, max_iter=32)
    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    spec = Spec.parse("GSS+SS")
    base = NativeRunner(wl, n_workers=8).run_hierarchical(
        spec, topology=cluster, costs=CALIBRATED_COSTS
    )
    # move the node queue's home by worker index: same tier structure,
    # different distances, so the ledger prices differently in general
    moved = NativeRunner(wl, n_workers=8).run_hierarchical(
        spec, topology=cluster, costs=CALIBRATED_COSTS,
        placement={(0,): 6},
    )
    assert moved.group_homes[(0,)] == (0, 1, 1)
    assert base.group_homes[(0,)] == (0, 0, 0)
    with pytest.raises(ValueError, match="not a member"):
        NativeRunner(wl, n_workers=4).run_hierarchical(
            spec, topology=cluster, costs=CALIBRATED_COSTS,
            placement={(0,): 7},
        )
    # unknown group keys must raise, exactly like the simulator's
    # explicit_plan — not be silently dropped
    with pytest.raises(ValueError, match="unknown groups"):
        NativeRunner(wl, n_workers=8).run_hierarchical(
            spec, topology=cluster, costs=CALIBRATED_COSTS,
            placement={(0, 9): 0},
        )


def test_native_placement_requires_topology():
    from repro.core.hierarchy import HierarchicalSpec as Spec
    from repro.native import NativeRunner
    from repro.workloads import mandelbrot_workload

    wl = mandelbrot_workload(width=16, height=16, max_iter=16)
    with pytest.raises(TypeError, match="topology"):
        NativeRunner(wl, n_workers=4).run_hierarchical(
            Spec.parse("GSS+SS"), placement="optimized"
        )


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_placement_and_costs_flags(capsys):
    from repro.cli import main

    code = main(
        [
            "run", "--techniques", "GSS+FAC2+STATIC", "--nodes", "2",
            "--ppn", "4", "--sockets", "2", "--scale", "tiny",
            "--placement", "optimized", "--costs", "calibrated",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "placement: optimized" in out
    assert "priced queue traffic" in out

