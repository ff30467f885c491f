"""Tests for the native threads backend (real kernel execution)."""

import numpy as np
import pytest

from repro.api import run_hierarchical
from repro.cluster.machine import ClusterSpec, NodeSpec, homogeneous, minihpc
from repro.cluster.noise import NO_NOISE
from repro.core.hierarchy import HierarchicalSpec
from repro.native import NativeRunner
from repro.workloads import Workload, mandelbrot_workload


@pytest.fixture(scope="module")
def workload():
    return mandelbrot_workload(width=48, height=48, max_iter=64)


@pytest.fixture(scope="module")
def serial(workload):
    return workload.execute(0, workload.n)


def assemble(result, workload, dtype):
    out = np.empty(workload.n, dtype=dtype)
    for chunk in result.chunks:
        out[chunk.start : chunk.end] = result.outputs[chunk.start]
    return out


@pytest.mark.parametrize("technique", ["STATIC", "SS", "GSS", "TSS", "FAC2"])
def test_flat_execution_matches_serial(workload, serial, technique):
    runner = NativeRunner(workload, n_workers=4, collect_outputs=True)
    result = runner.run_flat(technique)
    result.verify(workload.n)
    assert np.array_equal(assemble(result, workload, serial.dtype), serial)
    assert result.total_iterations == workload.n


@pytest.mark.parametrize("inter,intra", [("GSS", "FAC2"), ("FAC2", "SS"),
                                         ("TSS", "STATIC")])
def test_hierarchical_execution_matches_serial(workload, serial, inter, intra):
    runner = NativeRunner(workload, n_workers=8, collect_outputs=True)
    result = runner.run_hierarchical(
        HierarchicalSpec.of(inter, intra), topology=NodeSpec(cores=8, sockets=2)
    )
    result.verify(workload.n)
    assert np.array_equal(assemble(result, workload, serial.dtype), serial)


def test_single_worker(workload, serial):
    runner = NativeRunner(workload, n_workers=1, collect_outputs=True)
    result = runner.run_flat("GSS")
    assert result.total_iterations == workload.n
    assert np.array_equal(assemble(result, workload, serial.dtype), serial)


def test_worker_accounting(workload):
    runner = NativeRunner(workload, n_workers=4)
    result = runner.run_flat("FAC2")
    assert sum(result.per_worker_iterations.values()) == workload.n
    assert all(b >= 0 for b in result.per_worker_busy.values())
    assert result.wall_seconds > 0
    assert result.mode == "flat"


def test_requires_executor():
    bare = Workload("bare", np.ones(16))
    with pytest.raises(ValueError, match="no real executor"):
        NativeRunner(bare, n_workers=2)


def test_invalid_worker_count(workload):
    with pytest.raises(ValueError):
        NativeRunner(workload, n_workers=0)


def test_worker_exception_propagates():
    def bad_executor(start, size):
        raise RuntimeError("kernel exploded")

    wl = Workload("bad", np.ones(8), executor=bad_executor)
    runner = NativeRunner(wl, n_workers=2)
    with pytest.raises(RuntimeError, match="kernel exploded"):
        runner.run_flat("SS")


def test_outputs_not_collected_by_default(workload):
    runner = NativeRunner(workload, n_workers=2)
    result = runner.run_flat("GSS")
    assert result.outputs is None


# ---------------------------------------------------------------------------
# topology-aware hierarchical mode
# ---------------------------------------------------------------------------


def leaf_group_of(result, worker):
    return next(k for k, members in result.groups.items() if worker in members)


def assert_group_containment(result):
    """Every chunk a worker executed lies inside a range deposited into
    that worker's own leaf tier queue (never a foreign group's)."""
    for chunk in result.chunks:
        key = leaf_group_of(result, chunk.pe)
        assert any(
            start <= chunk.start and chunk.end <= start + size
            for start, size in result.group_deposits[key]
        ), f"chunk {chunk} escapes its group {key}'s deposits"


def test_topology_node_socket_groups(workload, serial):
    """Depth-2 on a dual-socket node: one group per socket, made of
    socket-contiguous workers (not modular stripes)."""
    node = NodeSpec(cores=8, sockets=2)
    runner = NativeRunner(workload, n_workers=8, collect_outputs=True)
    result = runner.run_hierarchical(
        HierarchicalSpec.of("GSS", "FAC2"), topology=node
    )
    result.verify(workload.n)
    assert np.array_equal(assemble(result, workload, serial.dtype), serial)
    assert result.groups == {(0,): [0, 1, 2, 3], (1,): [4, 5, 6, 7]}
    assert_group_containment(result)


def test_topology_numa_groups_are_contiguous(workload):
    """Depth-3 on a socketed NUMA node: leaf groups are NUMA-contiguous
    worker blocks and deposits nest socket -> NUMA."""
    node = NodeSpec(cores=8, sockets=2, numa_per_socket=2)
    runner = NativeRunner(workload, n_workers=8)
    result = runner.run_hierarchical(
        HierarchicalSpec.parse("GSS+FAC2+SS"), topology=node
    )
    result.verify(workload.n)
    assert result.groups == {
        (0, 0): [0, 1], (0, 1): [2, 3], (1, 0): [4, 5], (1, 1): [6, 7],
    }
    assert_group_containment(result)
    # NUMA deposits nest inside their socket's deposits
    for key, deposits in result.group_deposits.items():
        if len(key) != 2:
            continue
        socket_ranges = result.group_deposits[key[:1]]
        for start, size in deposits:
            assert any(
                s <= start and start + size <= s + z
                for s, z in socket_ranges
            ), f"NUMA deposit ({start}, {size}) escapes socket {key[:1]}"


def test_topology_cluster_depth_four(workload, serial):
    """A depth-4 W+X+Y+Z stack runs through the full tier tree."""
    cluster = homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2)
    runner = NativeRunner(workload, n_workers=16, collect_outputs=True)
    result = runner.run_hierarchical(
        HierarchicalSpec.parse("GSS+FAC2+FAC2+SS"), topology=cluster
    )
    result.verify(workload.n)
    assert np.array_equal(assemble(result, workload, serial.dtype), serial)
    assert len(result.groups) == 8  # 2 nodes x 2 sockets x 2 NUMA
    assert_group_containment(result)


def test_topology_partial_occupancy(workload):
    """Fewer workers than cores: groups follow the placement prefix."""
    node = NodeSpec(cores=8, sockets=2, numa_per_socket=2)
    runner = NativeRunner(workload, n_workers=5)
    result = runner.run_hierarchical(
        HierarchicalSpec.parse("GSS+SS"), topology=node
    )
    result.verify(workload.n)
    assert result.groups == {(0,): [0, 1, 2, 3], (1,): [4]}


def test_topology_rejects_bad_arguments(workload):
    runner = NativeRunner(workload, n_workers=4)
    with pytest.raises(ValueError, match="oversubscribe"):
        runner.run_hierarchical(
            HierarchicalSpec.of("GSS", "SS"), topology=NodeSpec(cores=2)
        )
    with pytest.raises(ValueError, match="depth-4"):
        runner.run_hierarchical(
            HierarchicalSpec.parse("GSS+FAC2+FAC2+SS"),
            topology=NodeSpec(cores=4, sockets=2, numa_per_socket=2),
        )
    with pytest.raises(TypeError, match="NodeSpec or ClusterSpec"):
        runner.run_hierarchical(
            HierarchicalSpec.of("GSS", "SS"), topology="dual-socket"
        )


def test_topology_matches_flat_striping_when_degenerate(workload):
    """A 1-socket NodeSpec is one flat group of workers — the same
    sub-chunk set as the simulator's mpi+mpi run of the stack on one
    4-rank node (same calculators, same refill protocol)."""
    spec = HierarchicalSpec.of("GSS", "FAC2")
    runner = NativeRunner(workload, n_workers=4)
    topo = runner.run_hierarchical(spec, topology=NodeSpec(cores=4))
    simulated = run_hierarchical(
        workload, minihpc(1, 4), "GSS", "FAC2", approach="mpi+mpi", ppn=4
    )
    assert topo.total_iterations == workload.n
    assert sorted((c.start, c.size) for c in topo.chunks) == sorted(
        (c.start, c.size) for c in simulated.subchunks
    )


@pytest.mark.parametrize("stack", ["FAC2+SS", "GSS+FAC2+SS", "TSS+GSS+FAC2+SS"])
def test_single_worker_tier_tree_matches_the_simulator(stack):
    """One worker on a one-core cluster runs the simulator's tier tree
    range for range: every tier's deposits, in deposit order, are the
    simulated run's chunks of that level, and the executed chunks its
    sub-chunks."""
    small = mandelbrot_workload(width=32, height=32, max_iter=32)
    native = NativeRunner(small, n_workers=1).run_hierarchical(
        HierarchicalSpec.parse(stack), topology=minihpc(1, 1)
    )
    simulated = run_hierarchical(small, minihpc(1, 1), stack, ppn=1, noise=NO_NOISE)
    tiers = sorted(native.group_deposits.items(), key=lambda item: len(item[0]))
    native_levels = [deposits for _key, deposits in tiers]
    native_levels.append([(c.start, c.size) for c in native.chunks])
    assert native_levels == [
        [(c.start, c.size) for c in log] for log in simulated.level_chunks
    ]


def test_topology_simulated_lock_cost_reporting(workload):
    """The lock ledger prices worker<->queue distance.

    Which worker wins which grab is a real thread race, so the test
    pins the deterministic part: the reported penalty equals the
    hand-recomputed price of the recorded ledger (each acquisition
    charged the tier-atomic penalty between the worker's core and the
    queue home), per-NUMA leaf-queue grabs are always free, and the
    distance-blind default knobs price everything at zero.
    """
    from repro.cluster.costs import DEFAULT_COSTS, NUMA_PENALTY_COSTS

    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    node = cluster.nodes[0]
    runner = NativeRunner(workload, n_workers=8)
    result = runner.run_hierarchical(
        HierarchicalSpec.parse("GSS+FAC2+FAC2+SS"), topology=cluster,
        costs=NUMA_PENALTY_COSTS,
    )
    # every executed chunk came from a ledgered leaf-queue acquisition
    assert sum(
        n for per_queue in result.group_lock_acquisitions.values()
        for n in per_queue.values()
    ) >= len(result.chunks)

    def path_of(worker):  # workers bind to cores in placement order
        return (0, node.socket_of_core(worker), node.numa_of_core(worker))

    mpi = NUMA_PENALTY_COSTS.mpi
    expected = 0.0
    for key, per_worker in result.group_lock_acquisitions.items():
        home_worker = min(result.groups[k][0] for k in result.groups
                          if k[: len(key)] == key)
        home = path_of(home_worker)
        for worker, n_acquired in per_worker.items():
            mine = path_of(worker)
            if mine[1] != home[1]:
                per_op = mpi.remote_numa_atomic_penalty + mpi.cross_socket_penalty
            elif mine[2] != home[2]:
                per_op = mpi.remote_numa_atomic_penalty
            else:
                per_op = 0.0
            expected += n_acquired * per_op
            if len(key) == 3:  # leaf NUMA queues: members are all home
                assert per_op == 0.0
    assert result.simulated_lock_penalty_s == pytest.approx(expected)

    # distance-blind default knobs price everything at zero
    free = runner.run_hierarchical(
        HierarchicalSpec.parse("GSS+SS"), topology=cluster,
        costs=DEFAULT_COSTS,
    )
    assert free.simulated_lock_penalty_s == 0.0
