"""Tests for the experiment harness (figures, tables, ablations, intext)."""

import pytest

from repro.experiments import (
    FIGURES,
    figure_mandelbrot,
    figure_psia,
    run_figure,
    scale_from_env,
    table1,
)
from repro.experiments.figures import FigureSpec, ShapeCheck, run_sync_illustration
from repro.experiments.harness import Cell, GridRunner, series
from repro.experiments.tables import table1_rows
from repro.experiments.workloads import SCALES, clear_cache, figure_workload


# ---------------------------------------------------------------------------
# figure registry
# ---------------------------------------------------------------------------


def test_all_eight_figures_registered():
    assert sorted(FIGURES) == [
        "fig4a", "fig4b", "fig5a", "fig5b",
        "fig6a", "fig6b", "fig7a", "fig7b",
    ]
    assert FIGURES["fig4a"].inter == "STATIC"
    assert FIGURES["fig5b"].app == "psia"
    assert FIGURES["fig6a"].inter == "TSS"
    assert FIGURES["fig7a"].inter == "FAC2"


def test_figure_spec_defaults_match_paper():
    spec = FIGURES["fig5a"]
    assert spec.node_counts == (2, 4, 8, 16)
    assert spec.ppn == 16
    assert spec.intras == ("STATIC", "SS", "GSS", "TSS", "FAC2")
    assert "Figure 5a" in spec.title


def test_unknown_figure_rejected():
    with pytest.raises(KeyError, match="unknown figure"):
        run_figure("fig9z")


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------


def test_scales_defined():
    assert set(SCALES) == {"tiny", "quick", "default", "full"}


def test_scale_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert scale_from_env() == "default"
    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert scale_from_env() == "quick"
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        scale_from_env()


def test_figure_workloads_cached():
    clear_cache()
    a = figure_mandelbrot("tiny")
    b = figure_mandelbrot("tiny")
    assert a is b
    clear_cache()
    c = figure_mandelbrot("tiny")
    assert c is not a


def test_figure_workload_dispatch():
    assert figure_workload("mandelbrot", "tiny").meta["kernel"] == "mandelbrot"
    assert figure_workload("psia", "tiny").meta["kernel"] == "psia"
    with pytest.raises(ValueError):
        figure_workload("linpack", "tiny")


@pytest.mark.parametrize("app", ["mandelbrot", "psia"])
def test_figure_workload_rejects_unknown_scale(app):
    with pytest.raises(ValueError, match=r"\['default', 'full', 'quick', 'tiny'\]"):
        figure_workload(app, "huge")


def test_mandelbrot_imbalance_greater_than_psia():
    """The structural premise of the whole evaluation (paper Sec. 4)."""
    mb = figure_mandelbrot("tiny")
    ps = figure_psia("tiny")
    assert mb.cov > 2 * ps.cov


def test_workload_scaling_hook():
    wl = figure_mandelbrot("tiny", total_seconds=10.0)
    assert wl.total_cost == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------


def test_grid_runner_cell_and_series():
    runner = GridRunner(workload=figure_mandelbrot("tiny"), ppn=4,
                        node_counts=(2,), seed=0)
    cells = runner.sweep(
        "GSS",
        ["STATIC", "SS"],
        [("mpi+mpi", lambda intra: True),
         ("mpi+openmp", lambda intra: intra == "STATIC")],
    )
    # mpi+mpi runs both intras; mpi+openmp only STATIC
    assert len(cells) == 3
    s = series(cells, "mpi+mpi", "STATIC")
    assert list(s) == [2]
    assert s[2] > 0
    assert all(isinstance(c, Cell) and c.label.startswith("GSS+") for c in cells)


def test_grid_runner_progress_callback():
    messages = []
    runner = GridRunner(
        workload=figure_mandelbrot("tiny"), ppn=4, node_counts=(2,),
        seed=0, progress=messages.append,
    )
    runner.sweep("GSS", ["GSS"], [("mpi+mpi", lambda intra: True)])
    assert len(messages) == 1
    assert "GSS+GSS" in messages[0]


# ---------------------------------------------------------------------------
# full figure at tiny scale
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("figure_id", ["fig5a", "fig4b"])
def test_run_figure_tiny(figure_id):
    result = run_figure(figure_id, scale="tiny", node_counts=(2, 4))
    text = result.to_text()
    # all five panels present
    for intra in ("STATIC", "SS", "GSS", "TSS", "FAC2"):
        assert f"intra-node: {intra}" in text
    # the paper's runtime restriction shows up as n/a
    assert "n/a" in text
    # checks were evaluated
    assert result.checks
    assert "shape checks" in text


def test_figure_result_series_extraction():
    result = run_figure("fig5a", scale="tiny", node_counts=(2,))
    s = result.series("mpi+mpi", "FAC2")
    assert list(s) == [2]
    assert result.series("mpi+openmp", "FAC2") == {}  # Intel runtime: n/a


def test_shape_check_line_format():
    check = ShapeCheck("works", True, "detail")
    assert check.line() == "  [PASS] works  (detail)"
    assert ShapeCheck("broken", False).line() == "  [FAIL] broken"


# ---------------------------------------------------------------------------
# sync illustration + table
# ---------------------------------------------------------------------------


def test_sync_illustration_tiny():
    report = run_sync_illustration(scale="tiny")
    assert "Figure 2" in report and "Figure 3" in report
    assert "t'_end" in report


def test_table1_contents():
    text = table1()
    assert "schedule(static)" in text
    assert "schedule(dynamic,1)" in text
    assert "schedule(guided,1)" in text
    assert "LaPeSD-libGOMP" in text
    rows = table1_rows()
    assert [r["technique"] for r in rows] == ["STATIC", "SS", "GSS"]


def test_table1_paper_only():
    text = table1(include_extensions=False)
    assert "LaPeSD" not in text
