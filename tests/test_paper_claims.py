"""The paper's findings that Figures 4-7, the ablations, the in-text
numbers, Table 1 and Figures 2/3 reproduce, each asserted through its
report at ``scale="quick"``.

One case per report, named by the paper section it speaks to; a failing
case prints the whole report.  The one known deviation (E-N1: the
Mandelbrot gap does not narrow from 2 to 16 nodes) is a strict xfail on
the real predicate, so a fix shows up as a failure to review.
"""

import functools

import pytest

from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import FIGURES, run_figure, run_sync_illustration, run_variant
from repro.experiments.intext import _gaps, intext_variant
from repro.experiments.tables import table1, table1_rows

CLAIMS = [
    # (paper section, report builder)
    ("Sec. 5: A-1 X+SS penalty is a lock-polling artefact [38]", ABLATIONS["lockpoll"]),
    ("Sec. 2: A-2 hierarchy beats centralised master-worker", ABLATIONS["models"]),
    ("Sec. 6: A-3 nowait removes the hybrid's barrier cost", ABLATIONS["nowait"]),
    ("Sec. 5: A-4 SS penalty grows with ppn, STATIC win persists", ABLATIONS["ppn"]),
    ("Sec. 5: E-N1/E-N2 in-text directions", intext_variant),
]


@functools.lru_cache(maxsize=None)
def _quick(build):
    """``build``'s report at ``quick`` scale, run once per test process."""
    return run_variant(build(), scale="quick", seed=0)


@pytest.mark.parametrize(
    "section, build", CLAIMS, ids=[section for section, _ in CLAIMS]
)
def test_paper_claim_holds_at_quick_scale(section, build):
    result = _quick(build)
    assert result.all_passed, f"{section}\n{result.to_text()}"


@pytest.mark.xfail(
    strict=True,
    reason="known deviation E-N1: the MPI+OpenMP/MPI+MPI gap widens "
    "(1.21x -> 1.29x at quick) where the paper's narrows (3.1x -> 1.45x)",
)
def test_mandelbrot_gap_narrows_from_2_to_16_nodes():
    """Sec. 5, E-N1: Mandelbrot GSS+STATIC, MPI+OpenMP over MPI+MPI
    time, is larger at 2 nodes than at 16."""
    gaps = _gaps(_quick(intext_variant))
    assert gaps["mandelbrot", 2] > gaps["mandelbrot", 16], gaps


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_shape_checks_hold_at_quick_scale(figure_id):
    """Figures 4-7 (arXiv 1903.09510): each panel's Sec. 5 shape checks
    (every series shrinks from 2 to 16 nodes; MPI+MPI against MPI+OpenMP
    per intra-node technique) all pass."""
    result = run_figure(figure_id, scale="quick", jobs=2)
    assert result.all_passed, f"{FIGURES[figure_id].paper_ref}\n{result.to_text()}"


def test_table1_maps_dls_techniques_to_openmp_clauses():
    """Table 1: STATIC, SS and GSS are OpenMP's static, dynamic,1 and
    guided,1 schedules; the extension rows name the LaPeSD libGOMP
    (Ciorba et al., arXiv 1809.03188)."""
    text = table1()
    rows = {r["technique"]: r["clause"] for r in table1_rows()}
    assert rows == {
        "STATIC": "schedule(static)",
        "SS": "schedule(dynamic,1)",
        "GSS": "schedule(guided,1)",
    }, text
    assert "LaPeSD-libGOMP" in text, text


def test_fig2_fig3_implicit_sync_illustration():
    """Figures 2/3: OpenMP threads idle at the end-of-worksharing
    barrier, and MPI+MPI runs the same work barrier-free to an earlier
    end (t'_end < t_end)."""
    report = run_sync_illustration(scale="quick")
    assert "[PASS]" in report and "[FAIL]" not in report, report
    # Figure 2's chart has the sync glyphs
    assert "=" in report.split("Figure 3")[0], report
