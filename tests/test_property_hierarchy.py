"""Property-based tests for arbitrary-depth hierarchical scheduling.

For random level stacks (depth 1-4), random techniques per level,
random topologies (nodes, sockets, NUMA domains, ppn) and random loop
sizes, the depth-generalised models must always:

(a) schedule every iteration exactly once (coverage, no overlap);
(b) hand out only positive chunk sizes at every level;
(c) keep every level's sub-chunks inside the parent chunk's
    ``[start, start + size)`` range (containment);
(d) be bit-deterministic given the seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_hierarchical
from repro.cluster.machine import homogeneous
from repro.core.chunking import verify_schedule
from repro.workloads import Workload

#: techniques usable at any level with no extra parameters
TECHNIQUES = ["STATIC", "SS", "GSS", "TSS", "FAC2", "mFSC", "TFSS"]
#: runtime-adaptive techniques (also parameter-free)
ADAPTIVE = ["AWF-B", "AWF-C", "AWF-D", "AWF-E", "AF"]

workloads = st.builds(
    lambda costs: Workload("prop", np.asarray(costs)),
    st.lists(
        st.floats(min_value=1e-6, max_value=5e-3, allow_nan=False),
        min_size=1,
        max_size=300,
    ),
)

stacks = st.lists(
    st.sampled_from(TECHNIQUES), min_size=1, max_size=4
)

adaptive_stacks = st.lists(
    st.sampled_from(TECHNIQUES + ADAPTIVE), min_size=2, max_size=4
).filter(lambda stack: any(t in ADAPTIVE for t in stack))


def check_level_invariants(result, n: int) -> None:
    """Coverage at the leaf; positivity + containment at every level."""
    verify_schedule(result.subchunks, n)
    for chunks in result.level_chunks:
        assert all(c.size > 0 for c in chunks)
    for upper, lower in zip(result.level_chunks, result.level_chunks[1:]):
        spans = sorted((u.start, u.end) for u in upper)
        for chunk in lower:
            assert any(
                start <= chunk.start and chunk.end <= end
                for start, end in spans
            ), f"sub-chunk {chunk} escapes every parent range"


@given(
    wl=workloads,
    stack=stacks,
    nodes=st.integers(min_value=1, max_value=3),
    sockets=st.sampled_from([1, 2, 4]),
    numa=st.sampled_from([1, 2]),
    ppn=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_mpi_mpi_any_depth_covers_and_nests(
    wl, stack, nodes, sockets, numa, ppn, seed
):
    result = run_hierarchical(
        wl,
        homogeneous(nodes, 8, sockets_per_node=sockets, numa_per_socket=numa),
        inter="+".join(stack), approach="mpi+mpi", ppn=ppn, seed=seed,
    )
    check_level_invariants(result, wl.n)
    assert result.parallel_time >= 0
    assert len(result.level_chunks) == len(stack)


@given(
    wl=workloads,
    stack=adaptive_stacks,
    nodes=st.integers(min_value=1, max_value=3),
    sockets=st.sampled_from([1, 2]),
    numa=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_mpi_mpi_adaptive_any_level_covers(wl, stack, nodes, sockets, numa, seed):
    """AWF-*/AF are valid at any level of the stack, not just the root."""
    result = run_hierarchical(
        wl,
        homogeneous(nodes, 4, sockets_per_node=sockets, numa_per_socket=numa),
        inter="+".join(stack), approach="mpi+mpi", ppn=4, seed=seed,
    )
    check_level_invariants(result, wl.n)


#: the OpenMP counters every mpi+openmp run reports, per stack depth
OMP_COUNTERS = {
    2: {"omp_phases", "omp_grabs"},
    3: {"omp_phases", "omp_grabs", "omp_outer_rounds"},
    4: {"omp_phases", "omp_grabs", "omp_outer_rounds", "omp_inner_rounds"},
}


def check_omp_counters(result, depth: int) -> None:
    """One worksharing round per chunk of the level above each team tier.

    Every chunk handed to a nested group opens one round there, and
    every chunk handed to a leaf team is one ``parallel_for`` phase.
    """
    counters = result.counters
    assert {k for k in counters if k.startswith("omp_")} == OMP_COUNTERS[depth]
    if depth >= 3:
        assert counters["omp_outer_rounds"] == len(result.level_chunks[0])
    if depth == 4:
        assert counters["omp_inner_rounds"] == len(result.level_chunks[1])
    assert counters["omp_phases"] == len(result.level_chunks[-2])


@given(
    wl=workloads,
    inter=st.sampled_from(TECHNIQUES),
    # None drops the socket level: the depth-2 case
    mid=st.sampled_from(TECHNIQUES + [None]),
    leaf=st.sampled_from(["STATIC", "SS", "GSS", "TSS", "FAC2"]),
    nodes=st.integers(min_value=1, max_value=3),
    sockets=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_mpi_openmp_three_level_covers_and_nests(
    wl, inter, mid, leaf, nodes, sockets, seed
):
    stack = [inter, leaf] if mid is None else [inter, mid, leaf]
    result = run_hierarchical(
        wl, homogeneous(nodes, 4, sockets_per_node=sockets),
        inter="+".join(stack), approach="mpi+openmp", ppn=4, seed=seed,
    )
    check_level_invariants(result, wl.n)
    assert len(result.level_chunks) == len(stack)
    check_omp_counters(result, len(stack))


@given(
    wl=workloads,
    inter=st.sampled_from(TECHNIQUES),
    mid=st.sampled_from(TECHNIQUES),
    numa_mid=st.sampled_from(TECHNIQUES),
    leaf=st.sampled_from(["STATIC", "SS", "GSS", "TSS", "FAC2"]),
    nodes=st.integers(min_value=1, max_value=2),
    sockets=st.sampled_from([1, 2]),
    numa=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_mpi_openmp_four_level_covers_and_nests(
    wl, inter, mid, numa_mid, leaf, nodes, sockets, numa, seed
):
    """Depth-4 stacks nest NUMA teams inside socket teams."""
    result = run_hierarchical(
        wl,
        homogeneous(nodes, 4, sockets_per_node=sockets, numa_per_socket=numa),
        inter=f"{inter}+{mid}+{numa_mid}+{leaf}", approach="mpi+openmp",
        ppn=4, seed=seed,
    )
    check_level_invariants(result, wl.n)
    assert len(result.level_chunks) == 4
    check_omp_counters(result, 4)


@given(
    wl=workloads,
    stack=stacks,
    sockets=st.sampled_from([1, 2]),
    numa=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_any_depth_bit_deterministic(wl, stack, sockets, numa, seed):
    def go():
        return run_hierarchical(
            wl,
            homogeneous(2, 4, sockets_per_node=sockets, numa_per_socket=numa),
            inter="+".join(stack), approach="mpi+mpi", ppn=4, seed=seed,
        )

    a, b = go(), go()
    assert a.parallel_time == b.parallel_time
    assert a.n_events == b.n_events
    for la, lb in zip(a.level_chunks, b.level_chunks):
        assert [(c.start, c.size, c.pe) for c in la] == [
            (c.start, c.size, c.pe) for c in lb
        ]


@given(
    wl=workloads,
    stack=st.lists(st.sampled_from(TECHNIQUES), min_size=2, max_size=2),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_depth_two_stack_equals_classic_pair(wl, stack, seed):
    """``of_levels(X, Y)`` runs identically to the classic ``of(X, Y)``."""
    joined = run_hierarchical(
        wl, homogeneous(2, 4), inter="+".join(stack),
        approach="mpi+mpi", ppn=4, seed=seed,
    )
    classic = run_hierarchical(
        wl, homogeneous(2, 4), inter=stack[0], intra=stack[1],
        approach="mpi+mpi", ppn=4, seed=seed,
    )
    assert joined.parallel_time == classic.parallel_time
    assert joined.n_events == classic.n_events
    assert [c.start for c in joined.subchunks] == [
        c.start for c in classic.subchunks
    ]
