"""Tests for the simulated MPI world: ranks, p2p, barrier."""

import pytest

from repro.cluster.machine import homogeneous
from repro.sim import Compute, Simulator
from repro.smpi import MpiWorld


def make_world(n_nodes=2, cores=4, ppn=None, seed=0):
    sim = Simulator(seed=seed)
    cluster = homogeneous(n_nodes, cores)
    return MpiWorld(sim, cluster, ppn=ppn)


# ---------------------------------------------------------------------------
# world construction and rank metadata
# ---------------------------------------------------------------------------


def test_world_size_and_placement():
    world = make_world(n_nodes=3, cores=4, ppn=4)
    assert world.size == 12
    assert world.contexts[0].node == 0
    assert world.contexts[4].node == 1
    assert world.contexts[11].node == 2


def test_ppn_defaults_to_core_count():
    world = make_world(n_nodes=2, cores=8)
    assert world.ppn == 8
    assert world.size == 16


def test_local_rank_and_node_ranks():
    world = make_world(n_nodes=2, cores=4, ppn=4)
    ctx = world.contexts[5]
    assert ctx.node == 1
    # position on its node: its index in the node's tier group
    assert world.placement.tier_groups(2)[ctx.node].members.index(ctx.rank) == 1
    assert ctx.node_ranks == [4, 5, 6, 7]
    assert not ctx.is_node_leader
    assert world.contexts[4].is_node_leader


def test_rank_name_contains_coordinates():
    world = make_world()
    assert world.contexts[5].name() == "rank5(n1.c1)"


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------


def test_send_recv_roundtrip():
    world = make_world()
    results = []

    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=7, payload={"x": 42})
        elif ctx.rank == 1:
            data = yield from ctx.recv(0, tag=7)
            results.append((data, ctx.sim.now))
        else:
            yield Compute(0.0)

    world.run(main)
    assert results[0][0] == {"x": 42}
    assert results[0][1] > 0.0  # transfer took simulated time


def test_intra_node_message_faster_than_inter_node():
    times = {}
    for label, dest in (("intra", 1), ("inter", 4)):
        world = make_world(n_nodes=2, cores=4, ppn=4)

        def main(ctx, dest=dest, label=label):
            if ctx.rank == 0:
                yield from ctx.send(dest, tag=1, payload=None)
            elif ctx.rank == dest:
                yield from ctx.recv(0, tag=1)
                times[label] = ctx.sim.now
            else:
                yield Compute(0.0)

        world.run(main)
    assert times["intra"] < times["inter"]


def test_large_message_pays_rendezvous_and_bandwidth():
    times = {}
    for label, nbytes in (("small", 64), ("large", 4 * 1024 * 1024)):
        world = make_world()

        def main(ctx, nbytes=nbytes, label=label):
            if ctx.rank == 0:
                yield from ctx.send(4, tag=1, payload=None, nbytes=nbytes)
            elif ctx.rank == 4:
                yield from ctx.recv(0, tag=1)
                times[label] = ctx.sim.now
            else:
                yield Compute(0.0)

        world.run(main)
    # 4 MiB at 12.5 GB/s is ~335 us >> the small-message time
    assert times["large"] > times["small"] * 10


def test_tag_matching_no_overtaking():
    world = make_world()
    got = []

    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=5, payload="first-5")
            yield from ctx.send(1, tag=9, payload="only-9")
            yield from ctx.send(1, tag=5, payload="second-5")
        elif ctx.rank == 1:
            got.append((yield from ctx.recv(0, tag=9)))
            got.append((yield from ctx.recv(0, tag=5)))
            got.append((yield from ctx.recv(0, tag=5)))
        else:
            yield Compute(0.0)

    world.run(main)
    assert got == ["only-9", "first-5", "second-5"]


def test_recv_any_reports_source():
    world = make_world()
    got = []

    def main(ctx):
        if ctx.rank == 0:
            for _ in range(world.size - 1):
                source, payload = yield from ctx.recv_any(tag=3)
                got.append((source, payload))
        else:
            yield Compute(ctx.rank * 0.001)  # stagger arrivals
            yield from ctx.send(0, tag=3, payload=ctx.rank * 10)

    world.run(main)
    assert sorted(got) == [(r, r * 10) for r in range(1, world.size)]
    # staggered sends arrive in rank order
    assert got == sorted(got)


def test_send_to_invalid_rank_raises():
    world = make_world()

    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.send(999, tag=0, payload=None)
        else:
            yield Compute(0.0)

    from repro.sim import ProcessFailure

    with pytest.raises(ProcessFailure, match="invalid rank"):
        world.run(main)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


def test_barrier_synchronises_all_ranks():
    world = make_world()
    after = []

    def main(ctx):
        yield Compute(ctx.rank * 0.5)
        yield from ctx.barrier()
        after.append(ctx.sim.now)

    world.run(main)
    slowest = (world.size - 1) * 0.5
    assert all(t >= slowest for t in after)
    assert len(after) == world.size


def test_barrier_charges_log_tree_overhead():
    world = make_world(n_nodes=2, cores=4, ppn=4)  # size 8 -> 3 stages

    def main(ctx):
        yield from ctx.barrier()

    procs = world.run(main)
    stage = world.costs.mpi.collective_stage
    assert procs[0].overhead_time == pytest.approx(3 * stage)


# ---------------------------------------------------------------------------
# deadlock detection
# ---------------------------------------------------------------------------


def test_unmatched_recv_detected_as_deadlock():
    world = make_world()

    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.recv(1, tag=1)  # never sent
        else:
            yield Compute(0.0)

    with pytest.raises(RuntimeError, match="deadlock"):
        world.run(main)
