"""Bit-exact pins for the scalar-engine paths the goldens do not reach.

Both goldens run fault-free ``uniform_workload`` configurations and
digest no counters.  This suite pins one small run per execution model
and depth 1-4 on the scalar engine, including the paths that only
fire under faults (crash-stop recovery, a node-window home crashing
while its peers poll the lock, fail-slow ranks), optimised placement
with calibrated costs and an ADAPT leaf.  Each case pins the makespan
(``parallel_time.hex()``), the engine's event count and a SHA-256 of
the hex-canonical counters, so any change to the event order, an RNG
draw or a counter accrual shows up here.

The pins were generated before the shared-window epoch, the RMA atomic
and the OpenMP chunk loop were flattened into single generator frames;
they must hold unedited on every later version.
"""

import hashlib
import json

import pytest

from repro.api import run_hierarchical, run_model
from repro.cluster.costs import COST_PRESETS
from repro.cluster.machine import minihpc
from repro.core.hierarchy import HierarchicalSpec, split_stack
from repro.models.mpi_openmp import MpiOpenMpModel
from repro.workloads import uniform_workload

from test_counter_determinism import canon

#: case id -> (approach, stack, run_hierarchical keyword arguments)
CASES = {
    "mpi+mpi-d1": ("mpi+mpi", "GSS", {}),
    "mpi+mpi-d1-faults": (
        "mpi+mpi", "FAC2", {"faults": "crash:3@0.004,slow:1@0.001:0.5"},
    ),
    "mpi+mpi-d2": ("mpi+mpi", "GSS+SS", {}),
    "mpi+mpi-d2-faults": (
        "mpi+mpi", "FAC2+SS", {"faults": "crash:5@0.004,slow:2@0.001:0.5"},
    ),
    # rank 8 is node 1's window home: it dies holding the window lock
    # mid-refill while its peers poll, so a lease break and a fail-over
    # both happen; rank 9 died first, so the window moves to rank 10 in
    # the other NUMA domain and the penalties of its peers change
    "mpi+mpi-d2-home-crash": (
        "mpi+mpi", "GSS+SS",
        {"faults": "crash:9@0.001,crash:8@0.01382", "costs": COST_PRESETS["numa"]},
    ),
    "mpi+mpi-d2-adapt": ("mpi+mpi", "AWF-B+ADAPT", {}),
    "mpi+mpi-d3": ("mpi+mpi", "GSS+FAC2+SS", {}),
    "mpi+mpi-d3-optimized": (
        "mpi+mpi", "GSS+FAC2+SS",
        {"placement": "optimized", "costs": COST_PRESETS["calibrated"]},
    ),
    "mpi+mpi-d4": ("mpi+mpi", "GSS+FAC2+FAC2+SS", {}),
    # uneven trees: ppn=6 on 2 sockets x 2 NUMA domains of 2 cores gives
    # sockets of 4 and 2 ranks and one empty NUMA domain per node
    "mpi+mpi-d3-uneven-optimized": (
        "mpi+mpi", "GSS+FAC2+SS",
        {"ppn": 6, "placement": "optimized", "costs": COST_PRESETS["calibrated"]},
    ),
    # both members of NUMA group (0, 1, 0) die: recovery strands the
    # whole group's queue and its parent socket queue's
    "mpi+mpi-d4-uneven-group-crash": (
        "mpi+mpi", "GSS+FAC2+FAC2+SS",
        {"ppn": 6, "faults": "crash:4@0.002,crash:5@0.003"},
    ),
    "mpi+mpi-d4-faults": (
        "mpi+mpi", "GSS+FAC2+FAC2+SS", {"faults": "crash:12@0.005"},
    ),
    "dcc-d1": ("dcc", "GSS", {}),
    "dcc-d2": ("dcc", "SS+SS", {}),
    # rank 0 hosts the step counter: the window fails over
    "dcc-d2-faults": ("dcc", "GSS+SS", {"faults": "crash:0@0.004,slow:6@0.001:0.5"}),
    "dcc-d2-rnd": ("dcc", "FAC2+RND", {}),
    "dcc-d3": ("dcc", "GSS+TSS+FAC2", {}),
    "dcc-d4": ("dcc", "GSS+FAC2+TSS+GSS", {}),
    "mpi+openmp-d2": ("mpi+openmp", "GSS+SS", {}),
    "mpi+openmp-d2-static": ("mpi+openmp", "FAC2+STATIC", {}),
    "mpi+openmp-d3": ("mpi+openmp", "GSS+GSS+SS", {}),
    "mpi+openmp-d4": ("mpi+openmp", "GSS+GSS+GSS+SS", {}),
    "mpi+openmp-d2-selffetch": ("mpi+openmp-selffetch", "GSS+SS", {}),
    "master-worker-d1": ("master-worker", "GSS", {}),
    "master-worker-d1-faults": ("master-worker", "SS", {"faults": "crash:4@0.004"}),
    "flat-mpi-d1": ("flat-mpi", "FAC2", {}),
}

#: case id -> (parallel_time.hex(), n_events, sha256 of canonical counters)
PINS = {
    'dcc-d1': (
        '0x1.0b58e1480bf12p-5', 352,
        'b191d7852ae21d44ccc0629d09e4aa88518928262912b48e8a2f8b13e66a873c',
    ),
    'dcc-d2': (
        '0x1.fa6f3e795349fp-6', 2004,
        '28714dc5caece7cacb27d7ee05213ea75f49eac35fc5eb9df44568041f650d42',
    ),
    'dcc-d2-faults': (
        '0x1.1955d7d3b813ep-5', 3491,
        '27c779e68794eca1a656002fa171e74b7e03fc86056e317f551e610c4955f734',
    ),
    'dcc-d2-rnd': (
        '0x1.fa0dd38e95a37p-6', 846,
        '925eea4459dfba16c012870348a77d870f866d1ef3415785f2902359f4165f11',
    ),
    'dcc-d3': (
        '0x1.fa4d2f052dfecp-6', 1087,
        'f4f633bd92331f58a6f10a87b79bff1a1ae4eb61b84f79aa8193f51650b4c599',
    ),
    'dcc-d4': (
        '0x1.fae38742c10e5p-6', 1428,
        'da01f0855f0d8f06b9986c0dcc6da624c1bbdcace0542cceb0aa0cc9e62499b3',
    ),
    'flat-mpi-d1': (
        '0x1.fcb2a23d782e7p-6', 401,
        '82c6635053196bd087d704e6ae9685c49c59ccf34ca17cc2f795234616cadcaa',
    ),
    'master-worker-d1': (
        '0x1.10102be22e2d4p-5', 872,
        '77a4ae7995a96da547742ed6e0c9286090f26fbd3f36e487023425876d2892e6',
    ),
    'master-worker-d1-faults': (
        '0x1.1ea6af7b4e642p-5', 5912,
        '4c56d08467e679edc0ca307f15dc17a63ead08d880c8e1c7bd9b501abc9a64d6',
    ),
    'mpi+mpi-d1': (
        '0x1.0b58e1480bf12p-5', 352,
        '304296bfd427e8ce5c1be8a1cc786d326815059e7ff92dd2b5259c97bfe595fb',
    ),
    'mpi+mpi-d1-faults': (
        '0x1.12345613d6a1bp-5', 1316,
        '0ccaa94785fdf15dba156bdedfce9b7501cad01918795add72c9ff177dbf0287',
    ),
    'mpi+mpi-d2': (
        '0x1.fac7d534e3ed6p-6', 2559,
        '89036bb1f5ccf993ed6861613c303e1831b92df9a6fb460ae78b8a60d7003b6e',
    ),
    'mpi+mpi-d2-adapt': (
        '0x1.fb30e0786f155p-6', 2634,
        'f1062980a2273dd9f53210de81c5d4dd30a7beaab2e9306fc2f3554a473767ef',
    ),
    'mpi+mpi-d2-faults': (
        '0x1.16887dded2c80p-5', 3545,
        '2c76d37535ee1cc8b38c7fbd3f3ba6cb187db2d4783352032e62394193e6ccb9',
    ),
    'mpi+mpi-d2-home-crash': (
        '0x1.1c0d93e8e996fp-5', 3474,
        '4863f21c78c758996e2ccde82dae0b47be6312734d687c95f7019154f7cd8031',
    ),
    'mpi+mpi-d3': (
        '0x1.fb3029aecc1dbp-6', 2921,
        '1a4876ab48fc95120474d5373b7fd66705bdd051e072824b69395c2e628b84e6',
    ),
    'mpi+mpi-d3-optimized': (
        '0x1.fb0660dc8246dp-6', 2919,
        '4877315e723d7eaf3fbf0340785f328faff6eda6c7d33983535adf1bbff99b01',
    ),
    'mpi+mpi-d4': (
        '0x1.fcc8f4f4f83f9p-6', 4135,
        'ccc861ee7fefd4f2e8b960b1d90290379b25f1ab01b981e58cd82077c6d305f7',
    ),
    'mpi+mpi-d3-uneven-optimized': (
        '0x1.5078a2ae8cfd7p-5', 2887,
        'b1fcaefc7bdc0473fbcc9f9d6e5ce9722a3fe6e1b2934277020a4ac56876fe8c',
    ),
    'mpi+mpi-d4-uneven-group-crash': (
        '0x1.eba49a55d62f5p-5', 11937,
        'e9d5df7c372f1b49fb68fa70f7ac6f245a0813e3dcfc2648498b61dede4d1960',
    ),
    'mpi+mpi-d4-faults': (
        '0x1.0f22bdf2b8f1dp-5', 5135,
        '701331f9aeb6a1bca942222395a99eb0992be5c7d4f0678e51a37af821b11588',
    ),
    'mpi+openmp-d2': (
        '0x1.17ae57f257df2p-5', 1370,
        'b2384c0137c97f93863e77fd31b73067d7979b53d45c5a1a27f8d671237122ea',
    ),
    'mpi+openmp-d2-selffetch': (
        '0x1.f73379bc919f3p-6', 1138,
        'c3af276538badfee8c7203bb80d5af6a8aea325d2e32b47ef0a54407f04c93a7',
    ),
    'mpi+openmp-d2-static': (
        '0x1.57634a8bdb1cap-5', 660,
        '0b1708aacc6a81127fef94fdf5d965e0155092e0db36a5b97cb0be583163344e',
    ),
    'mpi+openmp-d3': (
        '0x1.3f87df46a87ecp-5', 1842,
        '28f7e0fc906b390d0988520766fd54f4a8caa88ccd4911e2df8dc1d6c85fe5e0',
    ),
    'mpi+openmp-d4': (
        '0x1.5114329ef7b6cp-5', 2392,
        'a1f39103285ce59f709cebaa5c981f1613344ce8db216d06911d48bb3de0bea5',
    ),
}


def _run(approach, stack, kwargs):
    workload = uniform_workload(480, low=5e-5, high=2e-3, seed=5)
    cluster = minihpc(2, 8, sockets_per_node=2, numa_per_socket=2)
    if approach == "mpi+openmp-selffetch":
        spec = HierarchicalSpec.of_levels(*split_stack(stack))
        return run_model(
            MpiOpenMpModel(nowait_selffetch=True), workload, cluster, spec, seed=3,
        )
    return run_hierarchical(
        workload, cluster, inter=stack, approach=approach, seed=3, **kwargs
    )


def _pin(result):
    counters = json.dumps(canon(dict(result.counters)), sort_keys=True)
    return (
        result.parallel_time.hex(),
        result.n_events,
        hashlib.sha256(counters.encode()).hexdigest(),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_path_matches_pin(case):
    assert _pin(_run(*CASES[case])) == PINS[case]


def test_fault_cases_exercise_recovery():
    """The fault cases really crash ranks and recover their work."""
    home = _run(*CASES["mpi+mpi-d2-home-crash"]).counters
    assert home["dead_ranks"] == [8, 9]
    assert home["lock_leases_broken"] >= 1 and home["failovers"] >= 1
    assert home["chunks_reexecuted"] >= 1
    assert home["window_homes"][1] == 10
    group = _run(*CASES["mpi+mpi-d4-uneven-group-crash"]).counters
    assert group["dead_ranks"] == [4, 5]
    assert group["chunks_reexecuted"] == 5 and group["failovers"] == 2
    dcc = _run(*CASES["dcc-d2-faults"]).counters
    assert dcc["dead_ranks"] == [0] and dcc["window_homes"]["global"] == 1
