"""Cohort-vs-scalar differential harness (PR-10).

The cohort engine (:mod:`repro.sim.cohorts`) promises *bit-exactness,
not approximation*: on eligible cells it must reproduce the scalar
engine's :class:`RunResult` down to the last ulp, and on ineligible
cells it must fall back to the scalar path outright.  This suite pins
that contract three ways:

* both golden snapshots (``seed_runresults.json``,
  ``depth_runresults.json``) replay bit-exactly through
  ``engine="cohort"`` — the same assertions the scalar engine passes,
  including event counts (these cells carry noise, so they exercise
  the transparent fallback);
* eligible deterministic cells (NO_NOISE, homogeneous; mpi+mpi at
  depths 1-4, uneven tier groups included, flat-mpi and dcc) compare
  cohort against scalar field by field as hex floats — makespan,
  chunk/subchunk streams, per-worker accounting, counters — where only
  ``n_events`` may differ (macro-events replace rank-events);
* the ``engine=`` spelling surface: both valid spellings everywhere
  (API, CLI), anything else rejected loudly.
"""

import hashlib
import json
import os

import pytest

from repro.api import run_hierarchical
from repro.cluster.machine import heterogeneous, homogeneous
from repro.cluster.noise import NO_NOISE
from repro.sim.cohorts import cohort_blockers
from repro.workloads import uniform_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "seed_runresults.json"
)
DEPTH_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "depth_runresults.json"
)

#: must match tests/golden/generate_seed_golden.py
CLUSTERS = {
    "homog-2x4": lambda: homogeneous(2, 4),
    "homog-3x4": lambda: homogeneous(3, 4),
    "hetero-2": lambda: heterogeneous([4, 4], [1.0, 1.5]),
}

#: must match tests/golden/generate_depth_golden.py
DEPTH_CLUSTERS = {
    "flat-2x8": lambda: homogeneous(2, 8),
    "sock-2x8s2": lambda: homogeneous(2, 8, sockets_per_node=2),
    "numa-2x8s2m2": lambda: homogeneous(
        2, 8, sockets_per_node=2, numa_per_socket=2
    ),
    "numa-1x16s4m2": lambda: homogeneous(
        1, 16, sockets_per_node=4, numa_per_socket=2
    ),
}


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _load(GOLDEN_PATH)
APPROACHES = sorted({key.split("/")[0] for key in GOLDEN})
DEPTH_GOLDEN = _load(DEPTH_GOLDEN_PATH)


def _workload():
    return uniform_workload(240, low=5e-5, high=2e-3, seed=3)


def chunk_digest(result) -> str:
    payload = ";".join(
        f"{c.step},{c.start},{c.size},{c.pe}" for c in result.chunks
    ) + "|" + ";".join(
        f"{c.step},{c.start},{c.size},{c.pe}" for c in result.subchunks
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def level_chunk_digest(result) -> str:
    payload = "|".join(
        ";".join(f"{c.step},{c.start},{c.size},{c.pe}" for c in level)
        for level in result.level_chunks
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# golden replays through the cohort engine (all four execution models)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", APPROACHES)
def test_seed_golden_bit_identical_through_cohort_engine(approach):
    """Every seed-golden config replays bit-exactly with engine="cohort".

    These cells run the default (mild) noise model, so the cohort
    engine must detect ineligibility and reproduce the scalar event
    stream — including ``n_events`` — untouched.
    """
    wl = _workload()
    mismatches = []
    for key, want in GOLDEN.items():
        got_approach, inter, intra, cluster_id, ppn, seed = key.split("/")
        if got_approach != approach:
            continue
        result = run_hierarchical(
            wl,
            CLUSTERS[cluster_id](),
            inter=inter,
            intra=intra,
            approach=approach,
            ppn=int(ppn),
            seed=int(seed),
            engine="cohort",
        )
        finish = {w.name: w.finish_time.hex() for w in result.metrics.workers}
        if (
            result.spec_label != want["spec_label"]
            or result.parallel_time.hex() != want["parallel_time"]
            or result.n_events != want["n_events"]
            or finish != want["finish_times"]
            or chunk_digest(result) != want["chunk_digest"]
        ):
            mismatches.append(key)
    assert not mismatches, (
        f"{len(mismatches)} {approach} configs diverged from the seed "
        f"golden under engine='cohort', e.g. {mismatches[:5]}"
    )


def test_depth_golden_bit_identical_through_cohort_engine():
    """Every depth-2/3/4 golden config replays bit-exactly with cohort."""
    wl = _workload()
    mismatches = []
    for key, want in DEPTH_GOLDEN.items():
        approach, stack, cluster_id, ppn, seed = key.split("/")
        result = run_hierarchical(
            wl,
            DEPTH_CLUSTERS[cluster_id](),
            inter=stack,
            approach=approach,
            ppn=int(ppn),
            seed=int(seed),
            engine="cohort",
        )
        finish = {w.name: w.finish_time.hex() for w in result.metrics.workers}
        if (
            result.spec_label != want["spec_label"]
            or result.parallel_time.hex() != want["parallel_time"]
            or result.n_events != want["n_events"]
            or finish != want["finish_times"]
            or level_chunk_digest(result) != want["chunk_digest"]
        ):
            mismatches.append(key)
    assert not mismatches, (
        f"{len(mismatches)} depth configs diverged from the depth golden "
        f"under engine='cohort', e.g. {mismatches[:5]}"
    )


# ---------------------------------------------------------------------------
# eligible cells: field-by-field cohort == scalar (hex floats)
# ---------------------------------------------------------------------------


def result_fingerprint(result):
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
        "chunks": [(c.step, c.start, c.size, c.pe) for c in result.chunks],
        "subchunks": [
            (c.step, c.start, c.size, c.pe) for c in result.subchunks
        ],
        "level_chunks": [
            [(c.step, c.start, c.size, c.pe) for c in level]
            for level in result.level_chunks
        ],
        "workers": [
            (
                w.name,
                w.node,
                w.finish_time.hex(),
                w.compute_time.hex(),
                w.overhead_time.hex(),
                w.idle_time.hex(),
                w.n_chunks,
                w.n_iterations,
            )
            for w in result.metrics.workers
        ],
        "counters": canon(dict(result.counters)),
    }


ELIGIBLE_CELLS = [
    # (label, approach, inter, intra, cluster factory, ppn)
    ("mpi+mpi/GSS+SS/2x4", "mpi+mpi", "GSS", "SS", lambda: homogeneous(2, 4), 4),
    ("mpi+mpi/SS+GSS/3x4", "mpi+mpi", "SS", "GSS", lambda: homogeneous(3, 4), 4),
    ("mpi+mpi/TSS+FAC2/4x2", "mpi+mpi", "TSS", "FAC2", lambda: homogeneous(4, 2), 2),
    ("mpi+mpi/GSS/flat-2x4", "mpi+mpi", "GSS", None, lambda: homogeneous(2, 4), 4),
    ("mpi+mpi/mFSC/flat-3x2", "mpi+mpi", "mFSC", None, lambda: homogeneous(3, 2), 2),
    ("dcc/GSS+SS/2x4", "dcc", "GSS+SS", None, lambda: homogeneous(2, 4), 4),
    ("dcc/GSS+FAC2/3x4", "dcc", "GSS+FAC2", None, lambda: homogeneous(3, 4), 4),
    ("dcc/TSS/2x4", "dcc", "TSS", None, lambda: homogeneous(2, 4), 4),
    ("flat-mpi/GSS+SS/2x4", "flat-mpi", "GSS", "SS", lambda: homogeneous(2, 4), 4),
    ("flat-mpi/FAC2/3x2", "flat-mpi", "FAC2", None, lambda: homogeneous(3, 2), 2),
    ("flat-mpi/RND+SS/sock-2x8s2", "flat-mpi", "RND", "SS",
     lambda: homogeneous(2, 8, sockets_per_node=2), 8),
    # flat-mpi schedules the root level only: inner levels that would
    # block the fast path (adaptive, pinned STATIC) are never built
    ("flat-mpi/GSS+AWF-B/2x4", "flat-mpi", "GSS", "AWF-B",
     lambda: homogeneous(2, 4), 4),
    ("flat-mpi/GSS+STATIC/2x4", "flat-mpi", "GSS", "STATIC",
     lambda: homogeneous(2, 4), 4),
    ("flat-mpi/FAC2+AF/3x2", "flat-mpi", "FAC2", "AF", lambda: homogeneous(3, 2), 2),
    ("flat-mpi/TSS+STATIC+AWF-C/numa-2x8s2m2", "flat-mpi", "TSS+STATIC+AWF-C",
     None, lambda: homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2), 8),
    # depth 3-4: the tier driver walks node -> socket -> NUMA queues
    ("mpi+mpi/GSS+FAC2+SS/sock-2x8s2", "mpi+mpi", "GSS+FAC2+SS", None,
     lambda: homogeneous(2, 8, sockets_per_node=2), 8),
    # ppn 6 on 4-core sockets: socket groups of 4 and 2 ranks
    ("mpi+mpi/GSS+FAC2+SS/sock-3x8s2-ppn6", "mpi+mpi", "GSS+FAC2+SS", None,
     lambda: homogeneous(3, 8, sockets_per_node=2), 6),
    ("mpi+mpi/SS+GSS+GSS/sock-2x8s2", "mpi+mpi", "SS+GSS+GSS", None,
     lambda: homogeneous(2, 8, sockets_per_node=2), 8),
    ("mpi+mpi/GSS+FAC2+FAC2+SS/numa-2x8s2m2", "mpi+mpi", "GSS+FAC2+FAC2+SS",
     None, lambda: homogeneous(2, 8, sockets_per_node=2, numa_per_socket=2), 8),
    ("mpi+mpi/TSS+SS+GSS+SS/numa-1x16s4m2-ppn6", "mpi+mpi", "TSS+SS+GSS+SS",
     None, lambda: homogeneous(1, 16, sockets_per_node=4, numa_per_socket=2), 6),
]


@pytest.mark.parametrize(
    "label,approach,inter,intra,cluster,ppn",
    ELIGIBLE_CELLS,
    ids=[cell[0] for cell in ELIGIBLE_CELLS],
)
def test_eligible_cells_bit_identical_minus_event_count(
    label, approach, inter, intra, cluster, ppn
):
    """On eligible cells the engines agree on every simulated quantity.

    Only ``n_events`` may (and should) differ: the cohort engine counts
    macro-events, strictly fewer than the scalar engine's rank-events.
    """
    wl = _workload()
    kwargs = dict(
        inter=inter, intra=intra, approach=approach, ppn=ppn, seed=0,
        noise=NO_NOISE,
    )
    scalar = run_hierarchical(wl, cluster(), **kwargs)
    cohort = run_hierarchical(wl, cluster(), engine="cohort", **kwargs)
    assert result_fingerprint(scalar) == result_fingerprint(cohort), label
    assert cohort.n_events <= scalar.n_events, (
        "macro-events must not exceed scalar rank-events"
    )


def test_eligible_cells_really_take_the_fast_path():
    """Guard against silent fallback: the eligible cells above report no
    blockers, and a macro-event run processes strictly fewer events —
    at depth 2 and at depth 3 alike."""
    wl = _workload()
    for cluster, stack, ppn in (
        (lambda: homogeneous(2, 4), "GSS+SS", 4),
        (lambda: homogeneous(2, 8, sockets_per_node=2), "GSS+FAC2+SS", 8),
    ):
        kwargs = dict(inter=stack, ppn=ppn, seed=0, noise=NO_NOISE)
        scalar = run_hierarchical(wl, cluster(), **kwargs)
        cohort = run_hierarchical(wl, cluster(), engine="cohort", **kwargs)
        assert cohort.n_events < scalar.n_events, stack


def test_heterogeneous_and_noisy_cells_fall_back_whole_run():
    """Ineligible cells reproduce the scalar run exactly, events included."""
    wl = _workload()
    for kwargs in (
        dict(cluster=heterogeneous([4, 4], [1.0, 1.5]), inter="GSS",
             intra="SS", noise=NO_NOISE),     # heterogeneous core speeds
        dict(cluster=homogeneous(2, 4), inter="GSS", intra="SS"),  # noise
        dict(cluster=homogeneous(2, 4), inter="GSS", intra="AWF-B",
             noise=NO_NOISE),                  # adaptive technique
    ):
        cluster = kwargs.pop("cluster")
        scalar = run_hierarchical(wl, cluster, seed=0, **kwargs)
        cohort = run_hierarchical(wl, cluster, seed=0, engine="cohort",
                                  **kwargs)
        assert result_fingerprint(scalar) == result_fingerprint(cohort)
        assert scalar.n_events == cohort.n_events


# ---------------------------------------------------------------------------
# the engine= spelling surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine", ["scalar", "cohort", "Scalar", "COHORT", " cohort "]
)
def test_engine_spellings_accepted(engine):
    """Both engines parse case-insensitively with whitespace stripped."""
    wl = uniform_workload(40, low=5e-5, high=2e-3, seed=1)
    result = run_hierarchical(
        wl, homogeneous(1, 2), inter="GSS", intra="SS", seed=0,
        engine=engine,
    )
    assert result.parallel_time > 0


@pytest.mark.parametrize("engine", ["", "vector", "vectorised", "both"])
def test_engine_spellings_rejected(engine):
    wl = uniform_workload(40, low=5e-5, high=2e-3, seed=1)
    with pytest.raises(ValueError, match="unknown engine"):
        run_hierarchical(
            wl, homogeneous(1, 2), inter="GSS", intra="SS", seed=0,
            engine=engine,
        )


def test_cli_engine_flag():
    """The documented ``--engine`` flag parses and rejects bad values."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["run", "--engine", "cohort", "--nodes", "2", "--ppn", "2"]
    )
    assert args.engine == "cohort"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--engine", "vectorised"])


def test_cohort_blockers_reports_reasons(monkeypatch):
    """The eligibility probe names each blocking feature (or none)."""
    import repro.sim.cohorts as cohorts

    seen = {}
    original = cohorts.cohort_blockers

    def spy(model, run):
        blockers = original(model, run)
        seen["blockers"] = blockers
        return blockers

    monkeypatch.setattr(cohorts, "cohort_blockers", spy)
    wl = uniform_workload(40, low=5e-5, high=2e-3, seed=1)

    run_hierarchical(wl, homogeneous(2, 4), inter="GSS", intra="SS",
                     seed=0, noise=NO_NOISE, engine="cohort")
    assert seen["blockers"] == []

    run_hierarchical(wl, homogeneous(2, 4), inter="GSS", intra="SS",
                     seed=0, engine="cohort")  # default (mild) noise
    assert seen["blockers"], "a noisy cell must report at least one blocker"
    assert any("noise" in reason for reason in seen["blockers"])


def test_cohort_blockers_follow_the_model_class(monkeypatch):
    """Eligibility names no depth and no model string: mpi+mpi at depths
    3-4 and flat-mpi report no blockers, a model outside the
    :class:`~repro.models.mpi_mpi.MpiMpiModel` family does."""
    import repro.sim.cohorts as cohorts

    seen = []
    original = cohorts.cohort_blockers

    def spy(model, run):
        seen.append(original(model, run))
        return seen[-1]

    monkeypatch.setattr(cohorts, "cohort_blockers", spy)
    wl = uniform_workload(40, low=5e-5, high=2e-3, seed=1)
    numa = homogeneous(1, 8, sockets_per_node=2, numa_per_socket=2)
    for approach, stack in (
        ("mpi+mpi", "GSS+FAC2+SS"),
        ("mpi+mpi", "GSS+FAC2+FAC2+SS"),
        ("flat-mpi", "GSS+SS"),
    ):
        run_hierarchical(wl, numa, inter=stack, approach=approach, ppn=8,
                         seed=0, noise=NO_NOISE, engine="cohort")
        assert seen[-1] == [], (approach, stack)
    run_hierarchical(wl, numa, inter="GSS", intra="SS", approach="mpi+openmp",
                     ppn=8, seed=0, noise=NO_NOISE, engine="cohort")
    assert any("mpi+openmp" in reason for reason in seen[-1])


def test_flat_mpi_inner_levels_do_not_block_the_fast_path(monkeypatch):
    """flat-mpi composes the root level only, so an adaptive or pinned
    level below it reports no blocker and the run condenses; dCC builds
    every level, so the same stack falls back there."""
    import repro.sim.cohorts as cohorts

    seen = []
    original = cohorts.cohort_blockers

    def spy(model, run):
        seen.append(original(model, run))
        return seen[-1]

    monkeypatch.setattr(cohorts, "cohort_blockers", spy)
    wl = _workload()
    for inter, intra in (("GSS", "AWF-B"), ("GSS", "STATIC"), ("FAC2", "AF")):
        kwargs = dict(inter=inter, intra=intra, approach="flat-mpi", ppn=4,
                      seed=0, noise=NO_NOISE)
        scalar = run_hierarchical(wl, homogeneous(2, 4), **kwargs)
        cohort = run_hierarchical(wl, homogeneous(2, 4), engine="cohort", **kwargs)
        assert seen[-1] == [], (inter, intra)
        assert cohort.n_events < scalar.n_events, (inter, intra)
    run_hierarchical(wl, homogeneous(2, 4), inter="GSS+STATIC", approach="dcc",
                     ppn=4, seed=0, noise=NO_NOISE, engine="cohort")
    assert seen[-1] == ["pinned STATIC at level 1"]
