"""Tests for the cluster model: machine, costs, interconnect, noise, topology."""

import numpy as np
import pytest

from repro.cluster.costs import CostModel, MpiCosts, OmpCosts
from repro.cluster.interconnect import Interconnect
from repro.cluster.machine import (
    ClusterSpec,
    NodeSpec,
    heterogeneous,
    homogeneous,
    minihpc,
)
from repro.cluster.noise import HARSH_NOISE, MILD_NOISE, NO_NOISE, NoiseModel
from repro.cluster.topology import block_placement


# ---------------------------------------------------------------------------
# machine specs
# ---------------------------------------------------------------------------


def test_node_spec_validation():
    with pytest.raises(ValueError):
        NodeSpec(cores=0)
    with pytest.raises(ValueError):
        NodeSpec(cores=4, core_speed=0.0)


def test_cluster_totals():
    cluster = homogeneous(3, 8)
    assert cluster.n_nodes == 3
    assert cluster.total_cores == 24
    assert len(cluster.core_speeds()) == 24


def test_cluster_subset():
    cluster = homogeneous(8, 4)
    sub = cluster.subset(3)
    assert sub.n_nodes == 3
    assert sub.network_latency == cluster.network_latency
    with pytest.raises(ValueError):
        cluster.subset(9)


def test_minihpc_defaults_match_paper():
    cluster = minihpc()
    assert cluster.n_nodes == 16
    assert cluster.nodes[0].cores == 16
    # 100 Gbit/s Omni-Path-like fabric
    assert cluster.network_bandwidth == pytest.approx(12.5e9)
    with pytest.raises(ValueError):
        minihpc(17)


def test_heterogeneous_speeds():
    cluster = heterogeneous([4, 4], core_speeds=[1.0, 2.0])
    speeds = cluster.core_speeds()
    assert np.allclose(speeds[:4], 1.0)
    assert np.allclose(speeds[4:], 2.0)
    with pytest.raises(ValueError):
        heterogeneous([4, 4], core_speeds=[1.0])


def test_empty_cluster_rejected():
    with pytest.raises(ValueError):
        ClusterSpec(nodes=())


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------


def test_p2p_time_components():
    costs = MpiCosts()
    small = costs.p2p_time(64, same_node=False, network_latency=1e-6,
                           network_bandwidth=1e9)
    big = costs.p2p_time(10**6, same_node=False, network_latency=1e-6,
                         network_bandwidth=1e9)
    assert big > small + 9e-4  # bandwidth term dominates


def test_rendezvous_adds_round_trip():
    costs = MpiCosts(eager_limit=1024)
    eager = costs.p2p_time(1024, False, 1e-6, 1e12)
    rendezvous = costs.p2p_time(1025, False, 1e-6, 1e12)
    assert rendezvous > eager + 1e-6


def test_omp_barrier_scales_log():
    omp = OmpCosts()
    assert omp.barrier_time(1) == 0.0
    assert omp.barrier_time(16) > omp.barrier_time(2)
    assert omp.barrier_time(16) == pytest.approx(
        omp.barrier_base + 4 * omp.barrier_log
    )


def test_cost_model_with_overrides():
    base = CostModel()
    out = base.with_overrides(
        **{"mpi.shm_poll_interval": 1e-4, "omp.atomic": 5e-7, "chunk_calc": 1e-7}
    )
    assert out.mpi.shm_poll_interval == 1e-4
    assert out.omp.atomic == 5e-7
    assert out.chunk_calc == 1e-7
    # original untouched (frozen dataclasses)
    assert base.mpi.shm_poll_interval != 1e-4


def test_rma_atomic_local_vs_remote():
    costs = MpiCosts()
    local = costs.rma_atomic_time(same_node=True, network_latency=1e-6)
    remote = costs.rma_atomic_time(same_node=False, network_latency=1e-6)
    assert remote > local


# ---------------------------------------------------------------------------
# interconnect
# ---------------------------------------------------------------------------


def test_interconnect_intra_faster_than_inter():
    cluster = homogeneous(2, 4)
    net = Interconnect(cluster, MpiCosts(), block_placement(cluster, 4))
    # ranks 0-3 share node 0; rank 4 lives on node 1
    assert net.message_time(0, 1, 64) < net.message_time(0, 4, 64)
    assert net.atomic_time(0, 1) < net.atomic_time(0, 4)
    assert net.transfer_time(0, 1, 1024) < net.transfer_time(0, 4, 1024)


def test_interconnect_distance_independent():
    cluster = homogeneous(8, 2)
    net = Interconnect(cluster, MpiCosts(), block_placement(cluster, 2))
    # non-blocking fat tree: all remote pairs equal (ranks 2 and 14
    # live on nodes 1 and 7)
    assert net.message_time(0, 2, 64) == net.message_time(0, 14, 64)


def test_interconnect_queries_take_ranks_not_nodes():
    """Regression for the historical rank/node-index confusion.

    ``Interconnect`` used to take *node indices* while every caller
    held *ranks* — passing ranks silently misclassified co-located
    pairs as remote on any multi-node placement.  The interface is now
    rank-based: distinct ranks of one node must price as shared-memory
    peers, and equal *node indices* used as ranks must not alias.
    """
    cluster = homogeneous(2, 4)
    net = Interconnect(cluster, MpiCosts(), block_placement(cluster, 4))
    # ranks 2 and 3 share node 0: same-node pricing despite rank 3 != 0
    assert net.same_node(2, 3)
    assert net.message_time(2, 3, 64) == net.message_time(0, 1, 64)
    # the old node-index reading would have called (0, 1) "remote";
    # ranks 0 and 1 share node 0, so it is a shared-memory pair
    local = net.message_time(0, 1, 64)
    remote = net.message_time(0, 5, 64)  # rank 5 is on node 1
    assert local < remote


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_no_noise_is_identity():
    rng = np.random.default_rng(0)
    assert np.allclose(NO_NOISE.core_factor(rng, 8), 1.0)
    assert NO_NOISE.chunk_jitter(rng) == 1.0


def test_noise_factors_are_positive_and_spread():
    rng = np.random.default_rng(1)
    factors = HARSH_NOISE.core_factor(rng, 1000)
    assert factors.min() > 0
    assert factors.std() > MILD_NOISE.core_factor(
        np.random.default_rng(1), 1000
    ).std()


def test_chunk_jitter_centered_near_one():
    rng = np.random.default_rng(2)
    jitters = [MILD_NOISE.chunk_jitter(rng) for _ in range(2000)]
    assert 0.99 < np.mean(jitters) < 1.01


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


def test_block_placement_layout():
    cluster = homogeneous(3, 4)
    placement = block_placement(cluster, 2)
    assert placement.size == 6
    assert placement.node_of(0) == 0
    assert placement.node_of(2) == 1
    assert placement.core_of(3) == 1
    assert placement.ranks_on_node(2) == [4, 5]
    assert placement.node_leaders() == [0, 2, 4]
    assert placement.local_rank(3) == 1


def test_block_placement_rejects_oversubscription():
    with pytest.raises(ValueError, match="oversubscribes"):
        block_placement(homogeneous(2, 4), 5)
