"""Robustness tests for degenerate topologies and level/tier mismatches.

The depth generalisation must behave sensibly at the edges: one socket
per node, one core per socket, shallow stacks on deep machines — and
fail loudly (``ValueError``) when a stack is deeper than the machine
has tiers.
"""

import pytest

from repro.api import run_hierarchical
from repro.cluster.machine import ClusterSpec, NodeSpec, homogeneous
from repro.cluster.topology import block_placement
from repro.core.chunking import verify_schedule
from repro.workloads import uniform_workload


# ---------------------------------------------------------------------------
# machine-spec validation
# ---------------------------------------------------------------------------


def test_cores_must_split_evenly_over_sockets():
    with pytest.raises(ValueError, match="split evenly"):
        NodeSpec(cores=6, sockets=4)
    with pytest.raises(ValueError, match=">= 1 socket"):
        NodeSpec(cores=4, sockets=0)


def test_socket_of_core_mapping():
    node = NodeSpec(cores=8, sockets=2)
    assert node.cores_per_socket == 4
    assert [node.socket_of_core(c) for c in range(8)] == [0] * 4 + [1] * 4
    with pytest.raises(ValueError, match="outside node"):
        node.socket_of_core(8)


def test_cluster_socket_properties_uniform_and_mixed():
    uniform = homogeneous(2, 8, sockets_per_node=2)
    assert uniform.sockets_per_node == 2
    assert uniform.cores_per_socket == 4
    mixed = ClusterSpec(
        nodes=(NodeSpec(cores=8, sockets=2), NodeSpec(cores=8, sockets=4))
    )
    with pytest.raises(ValueError, match="mixed socket counts"):
        mixed.sockets_per_node
    with pytest.raises(ValueError, match="mixed cores-per-socket"):
        mixed.cores_per_socket


def test_block_placement_respects_socket_boundaries():
    placement = block_placement(homogeneous(2, 8, sockets_per_node=2), ppn=6)
    # 6 ranks per node: 4 fill socket 0 completely, 2 start socket 1
    groups = placement.tier_groups(3)
    assert groups[(0, 0)].members == (0, 1, 2, 3)
    assert groups[(0, 1)].members == (4, 5)
    assert [key[1] for key in groups[1].children] == [0, 1]
    assert placement.socket_of(4) == 1
    assert groups[placement.slots[5][:2]].members.index(5) == 1
    # consecutive ranks never interleave sockets
    for node in (0, 1):
        sockets = [placement.socket_of(r) for r in placement.ranks_on_node(node)]
        assert sockets == sorted(sockets)


# ---------------------------------------------------------------------------
# degenerate topologies run correctly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", ["mpi+mpi", "mpi+openmp"])
def test_three_level_on_single_socket_nodes(approach):
    """1 socket/node: the socket tier degenerates to the node tier."""
    wl = uniform_workload(300, seed=20)
    result = run_hierarchical(
        wl, homogeneous(2, 4, sockets_per_node=1),
        inter="GSS+FAC2+STATIC", approach=approach, ppn=4, seed=0,
    )
    verify_schedule(result.subchunks, wl.n)


@pytest.mark.parametrize("approach", ["mpi+mpi", "mpi+openmp"])
def test_three_level_one_core_per_socket(approach):
    """1 core/socket: every leaf queue serves exactly one worker."""
    wl = uniform_workload(300, seed=21)
    result = run_hierarchical(
        wl, homogeneous(2, 4, sockets_per_node=4),
        inter="GSS+FAC2+STATIC", approach=approach, ppn=4, seed=0,
    )
    verify_schedule(result.subchunks, wl.n)


def test_three_level_partial_socket_occupancy():
    """ppn below the core count leaves sockets partially (or completely)
    empty; grouping follows the placement, not the raw machine."""
    wl = uniform_workload(300, seed=22)
    for ppn in (1, 3, 5):
        result = run_hierarchical(
            wl, homogeneous(2, 8, sockets_per_node=2),
            inter="GSS+FAC2+SS", approach="mpi+mpi", ppn=ppn, seed=0,
        )
        verify_schedule(result.subchunks, wl.n)


@pytest.mark.parametrize("approach", ["mpi+mpi", "flat-mpi", "master-worker"])
def test_depth_one_on_multi_socket_cluster(approach):
    """Depth-1 stacks ignore the machine's deeper tiers entirely."""
    wl = uniform_workload(300, seed=23)
    result = run_hierarchical(
        wl, homogeneous(2, 4, sockets_per_node=2),
        inter="GSS", intra="SS" if approach != "mpi+mpi" else None,
        approach=approach, ppn=4, seed=0,
    )
    verify_schedule(result.subchunks, wl.n)


def test_single_node_single_core_three_level():
    """The most degenerate machine of all still schedules correctly."""
    wl = uniform_workload(50, seed=24)
    result = run_hierarchical(
        wl, homogeneous(1, 1), inter="GSS+FAC2+STATIC",
        approach="mpi+mpi", ppn=1, seed=0,
    )
    verify_schedule(result.subchunks, wl.n)


# ---------------------------------------------------------------------------
# stacks deeper than the machine has tiers fail loudly
# ---------------------------------------------------------------------------


def test_mpi_mpi_depth_five_raises():
    wl = uniform_workload(100, seed=25)
    with pytest.raises(ValueError, match="at most 4 levels"):
        run_hierarchical(
            wl, homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2),
            inter="GSS+GSS+GSS+GSS+GSS", approach="mpi+mpi", ppn=8,
        )


@pytest.mark.parametrize("stack", ["GSS", "GSS+GSS+GSS+GSS+GSS"])
def test_mpi_openmp_rejects_unmappable_depths(stack):
    wl = uniform_workload(100, seed=26)
    with pytest.raises(ValueError, match="depth-2 stack .* depth-4"):
        run_hierarchical(
            wl, homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2),
            inter=stack, approach="mpi+openmp", ppn=8,
        )


@pytest.mark.parametrize(
    "levels",
    [("GSS", "FAC2", "STATIC"), ("GSS", "FAC2", "SS", "STATIC")],
    ids=["depth3", "depth4"],
)
def test_nowait_selffetch_rejects_three_level_stacks(levels):
    """Ablation A-3 (nowait self-fetch) is a two-level protocol; it must
    refuse deeper stacks rather than silently running barrier-style."""
    from repro.core.hierarchy import HierarchicalSpec
    from repro.models import MpiOpenMpModel

    wl = uniform_workload(100, seed=28)
    with pytest.raises(ValueError, match="nowait self-fetch.*two-level"):
        MpiOpenMpModel(nowait_selffetch=True).run(
            wl, homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2),
            HierarchicalSpec.of_levels(*levels), ppn=8,
        )


def test_error_messages_name_the_offending_stack():
    wl = uniform_workload(100, seed=27)
    with pytest.raises(ValueError, match=r"GSS\+SS\+TSS\+FAC2\+STATIC"):
        run_hierarchical(
            wl, homogeneous(2, 8, sockets_per_node=2),
            inter="GSS+SS+TSS+FAC2+STATIC", approach="mpi+mpi", ppn=8,
        )
