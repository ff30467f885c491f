"""Property-based cohort-vs-scalar equivalence (PR-10).

Hypothesis draws random scheduling stacks (depth 1-4), topologies,
noise models, seeds and execution models (mpi+mpi, flat-mpi, dcc),
runs each cell through both engines, and asserts the cohort engine's
contract:

* identical chunk sets at every scheduling level (the composed
  schedule is engine-independent);
* identical counters and makespan, bit-for-bit (floats compared as
  hex);
* conservation invariants — every workload iteration is scheduled
  exactly once, whichever engine ran it and wherever cohorts split
  (contention winners vs losers, noise draws, heterogeneous speeds).

Ineligible draws (noise, adaptive or pinned techniques, heterogeneous
speeds) exercise the transparent fallback, where even the event count
must match; eligible draws exercise the macro-event fast path at every
depth.  The
``ci`` Hypothesis profile (tests/conftest.py) derandomizes the suite on
shared runners so a red build always reproduces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_hierarchical
from repro.cluster.machine import heterogeneous, homogeneous
from repro.cluster.noise import MILD_NOISE, NO_NOISE
from repro.workloads import uniform_workload

#: techniques legal at any level of an mpi+mpi stack
TECHNIQUES = ["GSS", "SS", "TSS", "FAC2", "mFSC", "RND", "STATIC", "AWF-B"]
#: techniques the dcc model can flatten (deterministic, rank-agnostic)
DCC_TECHNIQUES = ["GSS", "SS", "TSS", "FAC2", "mFSC", "RND"]

WORKLOAD = uniform_workload(96, low=5e-5, high=2e-3, seed=5)


def fingerprint(result):
    """Everything the simulation determines, floats as hex strings."""

    def canon(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {
                str(k): canon(v)
                for k, v in sorted(value.items(), key=lambda i: str(i[0]))
            }
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        return value

    return {
        "parallel_time": result.parallel_time.hex(),
        "level_chunks": [
            [(c.step, c.start, c.size, c.pe) for c in level]
            for level in result.level_chunks
        ],
        "subchunks": [
            (c.step, c.start, c.size, c.pe) for c in result.subchunks
        ],
        "workers": [
            (w.name, w.finish_time.hex(), w.compute_time.hex(),
             w.overhead_time.hex(), w.n_chunks, w.n_iterations)
            for w in result.metrics.workers
        ],
        "counters": canon(dict(result.counters)),
    }


def assert_conservation(result, n_iterations):
    """Every iteration scheduled exactly once, at every materialized level.

    The dcc model resolves chunks straight from the flattened stack, so
    its intermediate levels record no chunks — only levels that did
    materialize must each cover the workload exactly, and the final
    subchunk stream always must.
    """
    covered_levels = 0
    for level, chunks in enumerate(result.level_chunks):
        if not chunks:
            continue
        covered_levels += 1
        flat = [
            i for c in chunks for i in range(c.start, c.start + c.size)
        ]
        assert sorted(flat) == list(range(n_iterations)), (
            f"level {level} lost or duplicated iterations"
        )
    assert covered_levels >= 1
    flat = [
        i
        for c in result.subchunks
        for i in range(c.start, c.start + c.size)
    ]
    assert sorted(flat) == list(range(n_iterations)), (
        "subchunks lost or duplicated iterations"
    )
    assert sum(w.n_iterations for w in result.metrics.workers) == n_iterations


@st.composite
def cells(draw):
    """One random cell: approach, stack, cluster, noise, seed."""
    approach = draw(st.sampled_from(["mpi+mpi", "flat-mpi", "dcc"]))
    roster = DCC_TECHNIQUES if approach == "dcc" else TECHNIQUES
    depth = draw(st.integers(min_value=1, max_value=4))
    stack = "+".join(
        draw(st.lists(st.sampled_from(roster), min_size=depth,
                      max_size=depth))
    )
    hetero = draw(st.booleans()) and depth <= 2 and approach == "mpi+mpi"
    if hetero:
        cluster = heterogeneous([4, 4], [1.0, 1.5])
        ppn = 4
    else:
        # 2 sockets x 2 NUMA domains supports any depth 1-4 stack
        nodes = draw(st.sampled_from([1, 2, 3]))
        ppn = draw(st.sampled_from([2, 4]))
        cluster = homogeneous(
            nodes, ppn, sockets_per_node=2, numa_per_socket=1
        ) if ppn >= 2 else homogeneous(nodes, ppn)
        if depth >= 4:
            cluster = homogeneous(
                nodes, 4, sockets_per_node=2, numa_per_socket=2
            )
            ppn = 4
    noise = draw(st.sampled_from([NO_NOISE, MILD_NOISE]))
    seed = draw(st.integers(min_value=0, max_value=3))
    return approach, stack, cluster, ppn, noise, seed


@settings(max_examples=30)
@given(cells())
def test_cohort_equals_scalar_on_random_cells(cell):
    approach, stack, cluster, ppn, noise, seed = cell
    kwargs = dict(
        inter=stack, intra=None, approach=approach, ppn=ppn, seed=seed,
        noise=noise,
    )
    scalar = run_hierarchical(WORKLOAD, cluster, **kwargs)
    cohort = run_hierarchical(WORKLOAD, cluster, engine="cohort", **kwargs)
    assert fingerprint(scalar) == fingerprint(cohort)
    assert cohort.n_events <= scalar.n_events
    assert_conservation(cohort, WORKLOAD.n)
    assert_conservation(scalar, WORKLOAD.n)


@settings(max_examples=10)
@given(
    inter=st.sampled_from(["GSS", "TSS", "FAC2"]),
    intra=st.sampled_from(["SS", "GSS", "FAC2"]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_eligible_two_level_cells_hit_the_fast_path(inter, intra, seed):
    """NO_NOISE homogeneous two-level cells must aggregate, not fall
    back: fewer events processed, same result."""
    kwargs = dict(inter=inter, intra=intra, ppn=4, seed=seed, noise=NO_NOISE)
    scalar = run_hierarchical(WORKLOAD, homogeneous(2, 4), **kwargs)
    cohort = run_hierarchical(
        WORKLOAD, homogeneous(2, 4), engine="cohort", **kwargs
    )
    assert fingerprint(scalar) == fingerprint(cohort)
    assert cohort.n_events < scalar.n_events


def test_injected_crashes_fall_back_and_match():
    """Fault-carrying cells are ineligible; the fallback reproduces the
    scalar crash/re-execution stream exactly, events included."""
    kwargs = dict(
        inter="FAC2", intra="SS", ppn=4, seed=0, noise=NO_NOISE,
        faults="crash:3@0.001",
    )
    scalar = run_hierarchical(WORKLOAD, homogeneous(2, 4), **kwargs)
    cohort = run_hierarchical(
        WORKLOAD, homogeneous(2, 4), engine="cohort", **kwargs
    )
    assert fingerprint(scalar) == fingerprint(cohort)
    assert scalar.n_events == cohort.n_events
    assert scalar.counters.get("failures_injected", 0) >= 1
