"""Tests for HierarchicalSpec/LevelSpec composition and the public API."""

import pytest

from repro.api import APPROACHES, run_hierarchical, run_model
from repro.cluster.machine import homogeneous
from repro.core.chunking import unroll, verify_schedule
from repro.core.hierarchy import HierarchicalSpec, LevelSpec
from repro.core.technique_base import IterationProfile
from repro.core.techniques import get_technique
from repro.models import MODELS, MpiMpiModel
from repro.workloads import uniform_workload


# ---------------------------------------------------------------------------
# LevelSpec / HierarchicalSpec
# ---------------------------------------------------------------------------


def test_levelspec_from_string_and_instance():
    a = LevelSpec.of("GSS")
    b = LevelSpec.of(get_technique("GSS"))
    assert a.technique is b.technique


def test_hierarchicalspec_label():
    spec = HierarchicalSpec.of("GSS", "STATIC")
    assert spec.label == "GSS+STATIC"
    assert str(spec) == "GSS+STATIC"


def test_hierarchicalspec_prefixed_kwargs():
    profile = IterationProfile(mu=1e-3, sigma=1e-4)
    spec = HierarchicalSpec.of(
        "FAC", "WF",
        inter_profile=profile,
        intra_weights=[1.0, 2.0, 1.0, 1.0],
    )
    assert spec.inter.profile is profile
    assert spec.intra.weights == [1.0, 2.0, 1.0, 1.0]


def test_hierarchicalspec_rejects_unknown_kwargs():
    with pytest.raises(TypeError, match="unknown HierarchicalSpec"):
        HierarchicalSpec.of("GSS", "SS", bogus=1)


def test_min_chunk_wrapper_enforces_floor():
    spec = LevelSpec.of("GSS", min_chunk=8)
    calc = spec.make_calculator(1000, 4)
    chunks = unroll(calc)
    verify_schedule(chunks, 1000)
    # every chunk except possibly the last >= 8
    assert all(c.size >= 8 for c in chunks[:-1])


def test_min_chunk_wrapper_records_feedback():
    spec = LevelSpec.of("AWF-B", min_chunk=4)
    calc = spec.make_calculator(1000, 4)
    size = calc.size_at(0, pe=0)
    calc.record(0, size, compute_time=1.0)  # must not raise
    assert size >= 4


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def test_approaches_tuple_stable():
    assert set(APPROACHES) == {
        "mpi+mpi", "mpi+openmp", "flat-mpi", "master-worker", "dcc"
    }


def test_every_spelling_resolves_through_the_one_registry():
    """The accepted approach spellings are exactly the canonical names,
    in any case, with ``_``/``-``/spaces dropped, with or without ``+``."""
    from repro.api import _resolve_model

    spellings = {
        "mpi+mpi": ("MPI+MPI", "mpi_mpi", "mpimpi", " Mpi-Mpi "),
        "mpi+openmp": ("MPI+OpenMP", "mpi_openmp", "mpiopenmp"),
        "flat-mpi": ("flat-mpi", "FLAT_MPI", "flatmpi", "flat mpi"),
        "master-worker": ("master-worker", "MasterWorker", "master_worker"),
        "dcc": ("dcc", "DCC", "d-c-c"),
    }
    assert tuple(spellings) == APPROACHES == tuple(MODELS)
    for name, aliases in spellings.items():
        for alias in aliases:
            assert type(_resolve_model(alias)) is MODELS[name]
    for wrong in ("mpi", "flat+mpi", "openmp", "mpi+mpi+mpi"):
        with pytest.raises(ValueError, match="unknown approach"):
            _resolve_model(wrong)


UNPLACED = [name for name, model in MODELS.items() if not model.supports_placement]
UNFAULTED = [name for name, model in MODELS.items() if not model.supports_faults]


def test_capability_flags():
    assert UNPLACED == ["mpi+openmp", "flat-mpi", "master-worker"]
    assert UNFAULTED == ["mpi+openmp"]


@pytest.mark.parametrize("approach", UNPLACED)
def test_placement_rejection_names_the_models_that_place(approach):
    with pytest.raises(ValueError) as error:
        run_hierarchical(
            uniform_workload(64, seed=1), homogeneous(2, 4), "GSS", "SS",
            approach=approach, ppn=4, placement="optimized",
        )
    assert str(error.value) == (
        f"{approach} places windows at tier leaders only; "
        "placement='optimized' requires the mpi+mpi or dcc model"
    )


@pytest.mark.parametrize("approach", UNFAULTED)
def test_fault_rejection_names_the_failure_aware_models(approach):
    with pytest.raises(ValueError) as error:
        run_hierarchical(
            uniform_workload(64, seed=1), homogeneous(2, 4), "GSS", "SS",
            approach=approach, ppn=4, faults="crash:1@0.001",
        )
    assert str(error.value) == (
        f"{approach} has no failure-aware scheduling path; an active fault "
        "model requires the mpi+mpi, flat-mpi, master-worker or dcc model"
    )


def test_run_hierarchical_accepts_technique_instances():
    wl = uniform_workload(200, seed=1)
    result = run_hierarchical(
        wl, homogeneous(2, 4),
        inter=get_technique("GSS"), intra=get_technique("SS"),
        approach="mpi+mpi", ppn=4,
    )
    assert result.spec_label == "GSS+SS"


def test_run_hierarchical_approach_aliases():
    wl = uniform_workload(100, seed=2)
    for alias in ("MPI+MPI", "mpi_mpi", "mpi mpi"):
        result = run_hierarchical(
            wl, homogeneous(1, 4), "GSS", "SS", approach=alias, ppn=4,
        )
        assert result.approach == "mpi+mpi"


def test_run_model_direct():
    wl = uniform_workload(100, seed=3)
    result = run_model(
        MpiMpiModel(), wl, homogeneous(2, 4),
        HierarchicalSpec.of("FAC2", "GSS"), ppn=4, seed=0,
    )
    assert result.approach == "mpi+mpi"
    assert result.parallel_time > 0


def test_spec_kwargs_flow_through_api():
    wl = uniform_workload(100, seed=4)
    result = run_hierarchical(
        wl, homogeneous(2, 4), "WF", "SS", approach="flat-mpi", ppn=4,
        inter_weights=[1.0] * 8,
    )
    assert result.spec_label == "WF+SS"


def test_ppn_defaults_to_node_cores():
    wl = uniform_workload(100, seed=5)
    result = run_hierarchical(
        wl, homogeneous(2, 4), "GSS", "SS", approach="mpi+mpi",
    )
    assert result.ppn == 4
