"""The NUMA machine tier (4th level) end to end.

Covers the machine model (NodeSpec/ClusterSpec ``numa_per_socket``),
NUMA-aware placement, depth-4 ``W+X+Y+Z`` stacks through both
hierarchical models, the CLI (``--numa``), ``GridRunner``/figure
sweeps, and the bit-exactness of the ``numa_per_socket=1`` default.
"""

import pytest

from repro.api import run_hierarchical
from repro.cli import main as cli_main
from repro.cluster.machine import ClusterSpec, NodeSpec, heterogeneous, homogeneous
from repro.cluster.topology import block_placement
from repro.core.chunking import verify_schedule
from repro.workloads import uniform_workload


# ---------------------------------------------------------------------------
# machine model
# ---------------------------------------------------------------------------


def test_numa_validation():
    with pytest.raises(ValueError, match=">= 1 NUMA"):
        NodeSpec(cores=4, numa_per_socket=0)
    with pytest.raises(ValueError, match="NUMA domains"):
        NodeSpec(cores=6, sockets=2, numa_per_socket=2)  # 3 cores/socket


def test_numa_of_core_mapping():
    node = NodeSpec(cores=8, sockets=2, numa_per_socket=2)
    assert node.cores_per_socket == 4
    assert node.cores_per_numa == 2
    assert node.numa_domains == 4
    # sockets: [0 0 0 0 | 1 1 1 1]; NUMA within socket: [0 0 1 1 | 0 0 1 1]
    assert [node.numa_of_core(c) for c in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]
    with pytest.raises(ValueError, match="outside node"):
        node.numa_of_core(8)


def test_cluster_numa_property_uniform_and_mixed():
    uniform = homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2)
    assert uniform.numa_per_socket == 2
    mixed = ClusterSpec(
        nodes=(
            NodeSpec(cores=8, sockets=2, numa_per_socket=2),
            NodeSpec(cores=8, sockets=2, numa_per_socket=1),
        )
    )
    with pytest.raises(ValueError, match="mixed NUMA"):
        mixed.numa_per_socket


def test_heterogeneous_numa_counts():
    cluster = heterogeneous([4, 8], socket_counts=[1, 2], numa_counts=[2, 2])
    assert cluster.nodes[0].numa_domains == 2
    assert cluster.nodes[1].numa_domains == 4
    with pytest.raises(ValueError, match="numa_counts"):
        heterogeneous([4, 8], numa_counts=[2])


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def test_block_placement_respects_numa_boundaries():
    placement = block_placement(
        homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2), ppn=6
    )
    # 6 ranks/node: NUMA (0,0)=[0,1], (0,1)=[2,3], (1,0)=[4,5]
    groups = placement.tier_groups(4)
    assert groups[(0, 0, 0)].members == (0, 1)
    assert groups[(0, 0, 1)].members == (2, 3)
    assert groups[(0, 1, 0)].members == (4, 5)
    assert (0, 1, 1) not in groups  # an empty NUMA domain has no group
    assert [key[2] for key in groups[(0, 0)].children] == [0, 1]
    assert [key[2] for key in groups[(0, 1)].children] == [0]
    assert placement.numa_of(2) == 1
    assert groups[placement.slots[3][:3]].members.index(3) == 1
    # consecutive ranks never interleave NUMA domains
    for node in (0, 1):
        paths = [
            (placement.socket_of(r), placement.numa_of(r))
            for r in placement.ranks_on_node(node)
        ]
        assert paths == sorted(paths)


# ---------------------------------------------------------------------------
# depth-4 stacks through the models
# ---------------------------------------------------------------------------


def check_nesting(result, n):
    verify_schedule(result.subchunks, n)
    for upper, lower in zip(result.level_chunks, result.level_chunks[1:]):
        spans = sorted((u.start, u.end) for u in upper)
        for chunk in lower:
            assert any(
                start <= chunk.start and chunk.end <= end
                for start, end in spans
            ), f"sub-chunk {chunk} escapes every parent range"


@pytest.mark.parametrize("approach", ["mpi+mpi", "mpi+openmp"])
def test_depth_four_covers_and_nests(approach):
    wl = uniform_workload(400, seed=31)
    result = run_hierarchical(
        wl, homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2),
        inter="GSS+FAC2+FAC2+STATIC", approach=approach, ppn=8, seed=0,
    )
    check_nesting(result, wl.n)
    assert len(result.level_chunks) == 4


@pytest.mark.parametrize("approach", ["mpi+mpi", "mpi+openmp"])
def test_depth_four_on_single_numa_sockets(approach):
    """numa_per_socket=1: the NUMA tier degenerates to the socket tier."""
    wl = uniform_workload(300, seed=32)
    result = run_hierarchical(
        wl, homogeneous(2, 4, sockets_per_node=2),
        inter="GSS+FAC2+SS+STATIC", approach=approach, ppn=4, seed=0,
    )
    check_nesting(result, wl.n)


def test_depth_four_partial_numa_occupancy():
    """ppn below the core count leaves NUMA domains partially or fully
    empty; grouping follows the placement, not the raw machine."""
    wl = uniform_workload(300, seed=33)
    for ppn in (1, 3, 5):
        result = run_hierarchical(
            wl, homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2),
            inter="GSS+FAC2+FAC2+SS", approach="mpi+mpi", ppn=ppn, seed=0,
        )
        verify_schedule(result.subchunks, wl.n)


def test_depth_four_per_numa_locks():
    """Depth 4 allocates one shared window (own lock) per NUMA domain on
    top of the per-node and per-socket windows."""
    wl = uniform_workload(300, seed=34)
    result = run_hierarchical(
        wl, homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2),
        inter="GSS+FAC2+FAC2+SS", approach="mpi+mpi", ppn=8, seed=0,
    )
    lock_keys = set(result.counters["lock_stats"])
    # 2 node keys + 4 socket keys + 8 NUMA keys
    assert len([k for k in lock_keys if isinstance(k, int)]) == 2
    assert len([k for k in lock_keys if isinstance(k, tuple) and len(k) == 2]) == 4
    assert len([k for k in lock_keys if isinstance(k, tuple) and len(k) == 3]) == 8


def test_three_level_results_unchanged_by_numa_field():
    """Adding numa_per_socket=1 explicitly is bit-identical to the
    pre-NUMA machine (the golden differential covers depth <= 2; this
    pins depth 3)."""
    wl = uniform_workload(300, seed=35)
    kwargs = dict(
        inter="GSS+FAC2+SS", approach="mpi+mpi", ppn=8, seed=0,
    )
    base = run_hierarchical(
        wl, homogeneous(2, 8, sockets_per_node=2), **kwargs
    )
    explicit = run_hierarchical(
        wl, homogeneous(2, 8, sockets_per_node=2, numa_per_socket=1), **kwargs
    )
    assert base.parallel_time == explicit.parallel_time
    assert base.n_events == explicit.n_events
    assert [(c.start, c.size, c.pe) for c in base.subchunks] == [
        (c.start, c.size, c.pe) for c in explicit.subchunks
    ]


# ---------------------------------------------------------------------------
# CLI and GridRunner
# ---------------------------------------------------------------------------


def test_cli_run_depth_four(capsys):
    code = cli_main([
        "run", "--techniques", "GSS+FAC2+FAC2+STATIC", "--sockets", "2",
        "--numa", "2", "--nodes", "2", "--ppn", "8", "--scale", "tiny",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "GSS+FAC2+FAC2+STATIC" in out


def test_grid_runner_depth_four_sweep():
    from repro.experiments.harness import GridRunner
    from repro.workloads import mandelbrot_workload

    workload = mandelbrot_workload(width=16, height=16, max_iter=32)
    runner = GridRunner(
        workload=workload,
        ppn=8,
        node_counts=(2,),
        cluster_factory=lambda n: homogeneous(
            n, 8, sockets_per_node=2, numa_per_socket=2
        ),
    )
    cells = runner.sweep(
        "GSS", ["FAC2+FAC2+STATIC"], [("mpi+mpi", lambda intra: True)]
    )
    assert len(cells) == 1
    assert cells[0].label == "GSS+FAC2+FAC2+STATIC"
    assert cells[0].time > 0


def test_numa_variant_figure_spec():
    from repro.experiments.figures import numa_variant

    spec = numa_variant("fig5a", sockets_per_node=2, numa_per_socket=2)
    assert spec.figure_id == "fig5a-s2m2"
    assert spec.sockets_per_node == 2
    assert spec.numa_per_socket == 2
    assert all(intra.count("+") == 2 for intra in spec.intras)
    assert "NUMA" in spec.title
