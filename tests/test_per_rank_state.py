"""Per-rank state is built on demand.

Under MPI+MPI every core is a rank, and the scheduling protocols are
one-sided: only master-worker sends two-sided messages, and the cohort
engine launches no rank processes at all.  So a world builds a rank's
:class:`~repro.smpi.p2p.Mailbox` on its first send or receive and the
:class:`~repro.smpi.world.RankCtx` list only when rank processes are
launched.  These tests count the constructions, and pin master-worker's
``messages`` counter (the sum over the mailboxes that exist) to its
values from when every rank had a mailbox.
"""

import pytest

from repro.api import run_hierarchical
from repro.cluster.machine import homogeneous
from repro.cluster.noise import NO_NOISE
from repro.sim import Simulator
from repro.smpi import MpiWorld, RankCtx
from repro.smpi.p2p import Mailbox
from repro.workloads import uniform_workload


@pytest.fixture
def built(monkeypatch):
    """Counts of RankCtx and Mailbox constructions while the test runs."""
    counts = {"contexts": 0, "mailboxes": 0}

    def counting(cls, key):
        original = cls.__init__

        def init(self, *args, **kwargs):
            counts[key] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    counting(RankCtx, "contexts")
    counting(Mailbox, "mailboxes")
    return counts


def _workload():
    return uniform_workload(600, low=1e-5, high=1e-3, seed=7)


#: cohort-eligible cells: (approach, stack, sockets per node)
COHORT_CELLS = [
    ("mpi+mpi", "SS+GSS", 1),
    ("mpi+mpi", "SS+GSS+GSS", 2),
    ("flat-mpi", "GSS", 1),
    ("dcc", "SS+GSS", 1),
]


@pytest.mark.parametrize("approach,stack,sockets", COHORT_CELLS)
def test_cohort_runs_build_no_rank_contexts_or_mailboxes(
    built, approach, stack, sockets
):
    # a fallback to the scalar engine would launch rank processes, so
    # no RankCtx also shows the run took the fast path
    result = run_hierarchical(
        _workload(), homogeneous(3, 8, sockets_per_node=sockets), inter=stack,
        approach=approach, seed=2, noise=NO_NOISE, engine="cohort",
    )
    assert built == {"contexts": 0, "mailboxes": 0}
    assert [w.name for w in result.metrics.workers][:2] == [
        "rank0(n0.c0)", "rank1(n0.c1)",
    ]


@pytest.mark.parametrize(
    "approach,stack",
    [
        ("mpi+mpi", "SS+GSS"),
        ("mpi+mpi", "SS+GSS+GSS"),
        ("flat-mpi", "GSS"),
        ("dcc", "SS+GSS"),
        ("mpi+openmp", "SS+GSS"),
    ],
)
def test_one_sided_scalar_runs_build_no_mailboxes(built, approach, stack):
    run_hierarchical(
        _workload(), homogeneous(2, 8, sockets_per_node=2), inter=stack,
        approach=approach, seed=2,
    )
    assert built["contexts"] > 0  # rank processes ran
    assert built["mailboxes"] == 0


@pytest.mark.parametrize(
    "inter,faults,messages",
    [
        ("SS", None, 502),
        ("FAC2", None, 128),
        ("SS", "crash:3@0.001,crash:7@0.002", 504),
        ("FAC2", "crash:3@0.001,crash:7@0.002", 130),
    ],
)
def test_master_worker_message_count_unchanged(built, inter, faults, messages):
    result = run_hierarchical(
        uniform_workload(240, low=1e-5, high=1e-3, seed=4), homogeneous(3, 4),
        inter=inter, approach="master-worker", ppn=4, seed=1, faults=faults,
    )
    assert result.counters["messages"] == messages
    assert built["mailboxes"] == 12  # every rank sends and receives


def test_rank_alive_builds_no_rank_contexts(built):
    world = MpiWorld(Simulator(seed=0), homogeneous(2, 4))
    assert all(world.rank_alive(rank) for rank in range(world.size))
    assert built["contexts"] == 0
    assert world.contexts[5].name() == "rank5(n1.c1)"  # built on first read
    assert built["contexts"] == world.size


def test_barrier_is_built_on_first_use():
    world = MpiWorld(Simulator(seed=0), homogeneous(1, 4))
    assert world._barrier is None

    def main(ctx):
        yield from ctx.barrier()
        yield from ctx.barrier()

    world.run(main)
    assert len(world._barrier.generations) == 2
