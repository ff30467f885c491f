"""Byte pins of the placement, fault and dCC variant reports.

Each report is produced for figure ``fig5a`` at ``scale="tiny"`` and
seed 0, and its text is pinned by sha256: the title, the underline, the
table headers and rows and the shape-check lines must not move when the
way the sweeps are run changes.  The digests were captured with the
per-family runners (``run_placement_variant``, ``run_fault_variant``,
``run_dcc_variant``); the same file runs against the single
``run_variant`` that replaces them.
"""

import hashlib

import pytest

from repro.experiments import figures

PINS = {
    "placement": "48d3fc7e4fb719963e3db404dc7524f6e15a4d89541a18df7f465ca8e83a5231",
    "fault": "b90d8b54f9af17a470c26ba6991f2c015540415b3e3b85ad714c7da33b07e458",
    "dcc": "e11d68de0a8cee59ec816474b347aad4b939c2e26ba4985615f61aed6a88c850",
}


def _run(kind: str):
    spec = getattr(figures, f"{kind}_variant")("fig5a")
    runner = getattr(figures, "run_variant", None)
    if runner is None:  # the per-family runners the pins were captured with
        runner = getattr(figures, f"run_{kind}_variant")
    return runner(spec, scale="tiny", seed=0)


@pytest.mark.parametrize("kind", sorted(PINS))
def test_variant_report_is_byte_pinned(kind):
    result = _run(kind)
    text = result.to_text()
    assert result.all_passed, text
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[kind], text
