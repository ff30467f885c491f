"""Property tests for the locality-tier distance model.

For random depth-1..4 topologies (nodes x sockets x NUMA domains x
cores) and random non-negative penalty knobs, the
:class:`repro.cluster.interconnect.Interconnect` must always be

(a) **symmetric** — ``distance(a, b) == distance(b, a)``;
(b) **tier-monotone** — for identical payloads, cost never decreases
    with distance: same-NUMA <= same-socket <= same-node <= network;
(c) **placement-consistent** — the tier agrees with the placement's
    own (node, socket, numa) coordinates for every rank pair.

Plus unit coverage for the zero-default equivalence (penalties off =>
the seed's two-class model) and the shared-window home/penalty wiring.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costs import MpiCosts, NUMA_PENALTY_COSTS
from repro.cluster.interconnect import Interconnect, Tier
from repro.cluster.machine import homogeneous
from repro.cluster.topology import block_placement

#: (nodes, sockets_per_node, numa_per_socket, cores_per_numa)
topologies = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2]),
    st.integers(min_value=1, max_value=2),
)

penalties = st.tuples(
    st.floats(min_value=0.0, max_value=5e-6, allow_nan=False),
    st.floats(min_value=0.0, max_value=5e-6, allow_nan=False),
    st.floats(min_value=0.0, max_value=5e-6, allow_nan=False),
)


def _interconnect(topo, knobs=(0.0, 0.0, 0.0)):
    nodes, sockets, numa, cpn = topo
    cluster = homogeneous(
        nodes, sockets * numa * cpn, sockets_per_node=sockets,
        numa_per_socket=numa,
    )
    costs = MpiCosts(
        remote_numa_load_penalty=knobs[0],
        remote_numa_atomic_penalty=knobs[1],
        cross_socket_penalty=knobs[2],
    )
    ppn = cluster.nodes[0].cores
    return Interconnect(cluster, costs, block_placement(cluster, ppn))


@given(topo=topologies)
@settings(max_examples=60, deadline=None)
def test_distance_is_symmetric(topo):
    net = _interconnect(topo)
    size = net.placement.size
    for a in range(size):
        for b in range(size):
            assert net.distance(a, b) == net.distance(b, a)


@given(topo=topologies)
@settings(max_examples=60, deadline=None)
def test_distance_is_placement_consistent(topo):
    """The tier agrees with the placement's machine coordinates."""
    net = _interconnect(topo)
    placement = net.placement
    for a in range(placement.size):
        for b in range(placement.size):
            tier = net.distance(a, b)
            if placement.node_of(a) != placement.node_of(b):
                assert tier is Tier.NETWORK
            elif placement.socket_of(a) != placement.socket_of(b):
                assert tier is Tier.SAME_NODE
            elif placement.numa_of(a) != placement.numa_of(b):
                assert tier is Tier.SAME_SOCKET
            else:
                assert tier is Tier.SAME_NUMA
            if a == b:
                assert tier is Tier.SAME_NUMA


@given(topo=topologies, knobs=penalties)
@settings(max_examples=80, deadline=None)
def test_tier_costs_are_monotone_in_distance(topo, knobs):
    """Identical payloads never get cheaper with distance.

    For one representative rank pair per tier the topology exposes,
    message/atomic/transfer costs are non-decreasing in the tier order
    SAME_NUMA <= SAME_SOCKET <= SAME_NODE <= NETWORK, for any
    non-negative penalty knobs.
    """
    net = _interconnect(topo, knobs)
    size = net.placement.size
    representative = {}
    for a in range(size):
        for b in range(size):
            representative.setdefault(net.distance(a, b), (a, b))
    present = sorted(representative)
    for nearer, farther in zip(present, present[1:]):
        pair_n, pair_f = representative[nearer], representative[farther]
        assert net.message_time(*pair_n, 64) <= net.message_time(*pair_f, 64)
        assert net.transfer_time(*pair_n, 1024) <= net.transfer_time(*pair_f, 1024)
    # the penalty tables themselves are monotone ladders
    for t1, t2 in zip(Tier, list(Tier)[1:]):
        assert net.costs.tier_load_penalty(t1) <= net.costs.tier_load_penalty(t2)
        assert net.costs.tier_atomic_penalty(t1) <= net.costs.tier_atomic_penalty(t2)


@given(topo=topologies)
@settings(max_examples=40, deadline=None)
def test_zero_penalties_collapse_to_two_classes(topo):
    """With the default (zero) knobs every same-node pair prices alike,
    whatever NUMA/socket boundary it straddles — the seed's model."""
    net = _interconnect(topo)
    size = net.placement.size
    by_class = {}
    for a in range(size):
        for b in range(size):
            remote = net.distance(a, b) is Tier.NETWORK
            cost = (
                net.message_time(a, b, 64),
                net.transfer_time(a, b, 256),
            )
            by_class.setdefault(remote, set()).add(cost)
    for costs in by_class.values():
        assert len(costs) == 1


# ---------------------------------------------------------------------------
# shared-window homes (the queue-placement story)
# ---------------------------------------------------------------------------


def _world(cluster, costs=None):
    from repro.cluster.costs import CostModel
    from repro.sim.engine import Simulator
    from repro.smpi.world import MpiWorld

    return MpiWorld(
        Simulator(seed=0), cluster, costs=costs or CostModel()
    )


def test_shared_window_homes_follow_tier_groups():
    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    world = _world(cluster)
    node_win = world.create_shared_window(0, {})
    socket_win = world.create_shared_window((0, 1), {})
    numa_win = world.create_shared_window((0, 1, 1), {})
    free_win = world.create_shared_window("scratch", {})
    assert node_win.home_rank == 0
    assert socket_win.home_rank == 4  # first rank of socket 1
    assert numa_win.home_rank == 6  # first rank of (socket 1, numa 1)
    assert free_win.home_rank is None


def test_shared_window_penalties_price_the_distance():
    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    world = _world(cluster, NUMA_PENALTY_COSTS)
    mpi = NUMA_PENALTY_COSTS.mpi
    win = world.create_shared_window(0, {})  # home: rank 0 (socket 0, numa 0)
    # rank 1 shares rank 0's NUMA domain: free
    assert win._penalty_of(world.contexts[1]) == (0.0, 0.0)
    # rank 2 sits in numa 1 of socket 0: remote-NUMA penalties
    assert win._penalty_of(world.contexts[2]) == (
        mpi.remote_numa_load_penalty,
        mpi.remote_numa_atomic_penalty,
    )
    # rank 4 sits in socket 1: remote-NUMA + cross-socket
    assert win._penalty_of(world.contexts[4]) == (
        mpi.remote_numa_load_penalty + mpi.cross_socket_penalty,
        mpi.remote_numa_atomic_penalty + mpi.cross_socket_penalty,
    )


def test_numa_penalty_preset_is_nonzero_and_documented():
    mpi = NUMA_PENALTY_COSTS.mpi
    assert mpi.remote_numa_load_penalty > 0
    assert mpi.remote_numa_atomic_penalty > 0
    assert mpi.cross_socket_penalty > 0
    # the default model stays distance-blind
    assert MpiCosts().tier_atomic_penalty(Tier.NETWORK) == 0.0


def test_rma_atomics_pay_the_tier_penalty():
    """Same-node RMA atomics get dearer across sockets under the preset."""
    from repro.sim.engine import drain

    cluster = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)

    def atomic_cost(costs, origin_rank):
        world = _world(cluster, costs)
        window = world.create_window(0, {"c": 0})
        done = {}

        def main(ctx):
            if ctx.rank == origin_rank:
                t0 = ctx.sim.now
                yield from window.fetch_and_op(ctx, "c", 1)
                done["cost"] = ctx.sim.now - t0
            return
            yield  # pragma: no cover

        drain(world.sim, world.launch(main))
        return done["cost"]

    near = atomic_cost(NUMA_PENALTY_COSTS, 1)  # same NUMA as host rank 0
    far = atomic_cost(NUMA_PENALTY_COSTS, 4)  # other socket
    assert far == pytest.approx(
        near
        + NUMA_PENALTY_COSTS.mpi.remote_numa_atomic_penalty
        + NUMA_PENALTY_COSTS.mpi.cross_socket_penalty
    )
