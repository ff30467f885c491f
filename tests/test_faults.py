"""Fault-injection layer and failure-aware scheduling tests.

Covers the :mod:`repro.cluster.faults` model itself (parsing, seeded
random schedules, signatures), the engine primitives behind it
(``Simulator.kill``, the ``max_sim_time`` watchdog, lock lease
breaking), the zero-default guarantee (``faults=None`` and an inactive
model are bit-identical to the historical event stream), and the
end-to-end recovery property: under any crash-stop schedule that leaves
survivors, every iteration is executed exactly once by a surviving
rank, in all three failure-aware models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_hierarchical
from repro.cluster.faults import NO_FAULTS, CrashStop, FailSlow, FaultModel
from repro.cluster.machine import homogeneous
from repro.core.chunking import verify_schedule
from repro.sim import Simulator
from repro.sim.engine import SimulationTimeout
from repro.sim.primitives import Compute, Timeout
from repro.smpi import MpiWorld
from repro.workloads import Workload
from repro.workloads.synthetic import uniform_workload


def _workload(n=240, seed=3):
    return uniform_workload(n, low=5e-5, high=2e-3, seed=seed)


# ---------------------------------------------------------------------------
# the fault model itself
# ---------------------------------------------------------------------------
def test_parse_round_trip():
    spec = "crash:5@0.002,slow:2@0.001:0.5,stall:1@0.003:0.0005"
    model = FaultModel.parse(spec)
    assert model.active
    assert model.crashed_ranks == (5,)
    assert model.speed_factor(2, 0.002) == 0.5
    assert model.speed_factor(2, 0.0005) == 1.0
    # describe() emits the same tokens, parseable again
    again = FaultModel.parse(model.describe())
    assert again == model


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        FaultModel.parse("crunch:1@0.1")
    with pytest.raises(ValueError):
        FaultModel.parse("slow:1@0.1:0")  # factor must be in (0, 1]
    with pytest.raises(ValueError):
        FaultModel.parse("crash:1@-0.5")
    with pytest.raises(ValueError):
        FaultModel(crashes=(CrashStop(1, 0.1), CrashStop(1, 0.2)))


def test_parse_none_is_inactive():
    assert not FaultModel.parse("none").active
    assert not FaultModel.parse("").active
    assert not NO_FAULTS.active
    assert NO_FAULTS.signature() is None
    assert NO_FAULTS.describe() == "none"


def test_validate_rejects_out_of_range_ranks():
    with pytest.raises(ValueError):
        FaultModel.parse("crash:99@0.1").validate(8)
    with pytest.raises(ValueError):
        FaultModel(slowdowns=(FailSlow(-1, 0.1, 0.5),)).validate(8)


def test_random_crashes_seeded_and_capped():
    a = FaultModel.random_crashes(4, 4, 2, (1e-3, 5e-3), seed=7)
    b = FaultModel.random_crashes(4, 4, 2, (1e-3, 5e-3), seed=7)
    assert a == b
    assert len(a.crashes) == 4
    # ppn - 1 = 1 crash per node at most: every node keeps a survivor
    victims_per_node = {}
    for crash in a.crashes:
        node = crash.rank // 2
        victims_per_node[node] = victims_per_node.get(node, 0) + 1
    assert all(count <= 1 for count in victims_per_node.values())
    assert all(1e-3 <= c.time <= 5e-3 for c in a.crashes)
    c = FaultModel.random_crashes(4, 4, 2, (1e-3, 5e-3), seed=8)
    assert c != a


def test_signature_distinguishes_schedules():
    a = FaultModel.parse("crash:1@0.001")
    b = FaultModel.parse("crash:1@0.002")
    assert a.signature() != b.signature()
    assert a.signature() == FaultModel.parse("crash:1@0.001").signature()


# ---------------------------------------------------------------------------
# engine primitives: kill + watchdog
# ---------------------------------------------------------------------------
def test_kill_stops_process_without_finishing_it():
    sim = Simulator()
    log = []

    def victim():
        yield Timeout(1.0)
        log.append("survived")

    def killer(target):
        yield Timeout(0.5)
        assert sim.kill(target)
        assert not sim.kill(target)  # second kill is a no-op

    process = sim.spawn(victim(), name="victim")
    sim.spawn(killer(process), name="killer")
    sim.run()
    assert process.killed and not process.alive
    assert process.end_time == pytest.approx(0.5)
    assert log == []


def test_max_sim_time_watchdog_raises_with_diagnostics():
    sim = Simulator()

    def spinner():
        while True:
            yield Timeout(1.0)

    sim.spawn(spinner(), name="spinner")
    with pytest.raises(SimulationTimeout) as excinfo:
        sim.run(max_sim_time=10.0)
    message = str(excinfo.value)
    assert "10" in message and "spinner" in message
    assert excinfo.value.deadline == 10.0


def test_max_sim_time_inert_when_run_finishes_in_time():
    sim = Simulator()
    done = []

    def quick():
        yield Timeout(1.0)
        done.append(True)

    sim.spawn(quick(), name="quick")
    sim.run(max_sim_time=10.0)
    assert done == [True]


def test_run_hierarchical_threads_max_sim_time():
    with pytest.raises(SimulationTimeout):
        run_hierarchical(
            _workload(), homogeneous(2, 4), inter="FAC2", intra="SS",
            ppn=4, max_sim_time=1e-9,
        )


# ---------------------------------------------------------------------------
# lease breaking: a rank killed while holding a shared-window lock
# ---------------------------------------------------------------------------
def test_dead_lock_holder_lease_is_broken():
    faults = FaultModel.parse("crash:0@0.001")
    world = MpiWorld(
        Simulator(seed=0), homogeneous(1, 4), ppn=4, faults=faults
    )
    shm = world.create_shared_window(0, {"c": 0})
    reached = []

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.lock(ctx)
            yield Compute(1.0)  # killed long before this completes
            yield shm.unlock(ctx)
            shm.release(ctx)
        else:
            yield Timeout(0.002)
            yield from shm.lock(ctx)
            reached.append(ctx.rank)
            yield shm.unlock(ctx)
            shm.release(ctx)

    processes = world.launch(main)
    world.sim.spawn(_kill_at(world, 0, 0.001), name="injector")
    world.sim.run()
    assert processes[0].killed
    assert sorted(reached) == [1, 2, 3]
    assert shm.n_leases_broken >= 1


def _kill_at(world, rank, time):
    def injector():
        yield Timeout(time)
        world.sim.kill(world.contexts[rank].process)

    return injector()


def test_live_holder_lease_is_not_broken():
    # same shape, no crash: the poller must never force-release a lock
    # whose owner is alive (and with faults=None the branch is skipped)
    world = MpiWorld(Simulator(seed=0), homogeneous(1, 2), ppn=2)
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        yield from shm.lock(ctx)
        yield Compute(1e-4)
        yield shm.unlock(ctx)
        shm.release(ctx)

    world.run(main)
    assert shm.n_leases_broken == 0


# ---------------------------------------------------------------------------
# zero-default guarantee: None / inactive faults replay bit-exactly
# ---------------------------------------------------------------------------
def _digest(result):
    return (
        float(result.parallel_time).hex(),
        [(c.step, c.start, c.size, c.pe) for c in result.subchunks],
        result.n_events,
    )


@pytest.mark.parametrize(
    "approach,stack",
    [
        ("mpi+mpi", ("FAC2", "SS")),
        ("mpi+mpi", ("GSS", "FAC2+SS")),
        ("flat-mpi", ("FAC2", None)),
        ("master-worker", ("SS", None)),
        ("mpi+openmp", ("GSS", "STATIC")),
    ],
)
def test_inactive_faults_bit_exact(approach, stack):
    inter, intra = stack
    kwargs = dict(
        workload=_workload(), cluster=homogeneous(2, 4),
        inter=inter, intra=intra, approach=approach, ppn=4, seed=5,
    )
    baseline = _digest(run_hierarchical(**kwargs))
    assert _digest(run_hierarchical(**kwargs, faults=NO_FAULTS)) == baseline
    assert _digest(run_hierarchical(**kwargs, faults="none")) == baseline
    # the watchdog's general event lane must be bit-exact too
    assert _digest(run_hierarchical(**kwargs, max_sim_time=1e6)) == baseline


def test_active_faults_rejected_by_mpi_openmp():
    with pytest.raises(ValueError, match="failure-aware"):
        run_hierarchical(
            _workload(), homogeneous(2, 4), inter="GSS", intra="STATIC",
            approach="mpi+openmp", ppn=4, faults="crash:1@0.001",
        )


def test_master_crash_rejected():
    with pytest.raises(ValueError, match="rank 0"):
        run_hierarchical(
            _workload(), homogeneous(2, 4), inter="SS", intra=None,
            approach="master-worker", ppn=4, faults="crash:0@0.001",
        )


# ---------------------------------------------------------------------------
# recovery: exactly-once execution on the survivors
# ---------------------------------------------------------------------------
def _fault_counters(result):
    return {
        key: result.counters[key]
        for key in (
            "failures_injected", "chunks_reexecuted", "failovers",
            "lock_leases_broken", "dead_ranks",
        )
    }


def test_coordinator_failover_regression():
    # rank 0 hosts the global window AND is the node-0 tier leader
    # (shared-window home): killing it must fail over both
    result = run_hierarchical(
        _workload(), homogeneous(4, 4), inter="FAC2", intra="SS",
        ppn=4, seed=1, faults="crash:0@0.001",
    )
    verify_schedule(result.subchunks, 240)
    counters = _fault_counters(result)
    assert counters["dead_ranks"] == [0]
    assert counters["failovers"] >= 1
    assert counters["failures_injected"] == 1


def test_crash_reexecutes_stranded_work():
    result = run_hierarchical(
        _workload(), homogeneous(4, 4), inter="FAC2", intra="SS",
        ppn=4, seed=1, faults="crash:5@0.002,crash:9@0.003",
    )
    verify_schedule(result.subchunks, 240)
    assert result.counters["dead_ranks"] == [5, 9]


def test_fail_slow_and_stall_extend_makespan():
    kwargs = dict(
        workload=_workload(), cluster=homogeneous(2, 4),
        inter="SS", intra="SS", ppn=4, seed=2,
    )
    baseline = run_hierarchical(**kwargs).parallel_time
    slow = run_hierarchical(
        **kwargs, faults="slow:0@0:0.1,slow:1@0:0.1,slow:2@0:0.1"
    ).parallel_time
    stalled = run_hierarchical(
        **kwargs, faults="stall:0@0.001:0.05"
    ).parallel_time
    assert slow > baseline
    assert stalled > baseline


def test_flat_mpi_survives_host_crash():
    result = run_hierarchical(
        _workload(), homogeneous(2, 4), inter="FAC2", intra=None,
        approach="flat-mpi", ppn=4, seed=1,
        faults="crash:0@0.001,crash:3@0.003",
    )
    verify_schedule(result.subchunks, 240)
    counters = _fault_counters(result)
    assert counters["dead_ranks"] == [0, 3]
    assert counters["failovers"] >= 1  # global window re-hosted


def test_master_worker_survives_worker_crashes():
    result = run_hierarchical(
        _workload(), homogeneous(3, 4), inter="FAC2", intra=None,
        approach="master-worker", ppn=4, seed=1,
        faults="crash:3@0.001,crash:7@0.002",
    )
    verify_schedule(result.subchunks, 240)
    assert result.counters["dead_ranks"] == [3, 7]
    assert result.counters["chunks_reexecuted"] >= 1


@given(
    costs=st.lists(
        st.floats(min_value=1e-5, max_value=2e-3, allow_nan=False),
        min_size=20,
        max_size=200,
    ),
    stack=st.sampled_from(
        [
            ("SS", None),  # depth 1 (flat protocol inside mpi+mpi)
            ("FAC2", "SS"),  # depth 2
            ("GSS", "FAC2+SS"),  # depth 3
            ("FAC2", "FAC2+GSS+SS"),  # depth 4
        ]
    ),
    n_nodes=st.integers(min_value=1, max_value=3),
    n_crashes=st.integers(min_value=0, max_value=5),
    fault_seed=st.integers(min_value=0, max_value=1000),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_exactly_once_under_random_crashes(
    costs, stack, n_nodes, n_crashes, fault_seed, seed
):
    """Under any survivable crash schedule, every iteration is executed
    exactly once by a surviving rank, at every hierarchy depth."""
    ppn = 4
    wl = Workload("prop", np.asarray(costs))
    faults = FaultModel.random_crashes(
        min(n_crashes, n_nodes * (ppn - 1)),
        n_nodes,
        ppn,
        (1e-4, 5e-3),
        seed=fault_seed,
    )
    inter, intra = stack
    cluster = homogeneous(
        n_nodes, ppn, sockets_per_node=2 if intra and "+" in intra else 1
    )
    result = run_hierarchical(
        wl, cluster, inter=inter, intra=intra, ppn=ppn, seed=seed,
        faults=faults, max_sim_time=1e4,
    )
    verify_schedule(result.subchunks, wl.n)
    # a crash scheduled after a rank already finished is a no-op, so
    # the dead set is a subset of (not always equal to) the schedule
    assert set(result.counters["dead_ranks"]) <= set(faults.crashed_ranks)
    # the hard guarantee is coverage (verify_schedule above); also at
    # least one rank did work, i.e. the run completed on survivors
    assert {c.pe for c in result.subchunks}
