"""Byte pins of the variant reports: the placement, fault and dCC
extension sweeps, ablations A-1..A-4 and the Sec. 5 in-text numbers.

Each report is run by ``run_variant`` at ``scale="tiny"`` and seed 0
(the extension sweeps for figure ``fig5a``), and its text is pinned by
sha256: the title, the underline, the table headers and rows and the
shape-check lines must not move when the way the sweeps are run
changes.  Every report's shape checks must also pass.
"""

import hashlib

import pytest

from repro.experiments import ablations, figures, intext

BUILDERS = {
    "placement": lambda: figures.placement_variant("fig5a"),
    "fault": lambda: figures.fault_variant("fig5a"),
    "dcc": lambda: figures.dcc_variant("fig5a"),
    **{f"ablation-{name}": build for name, build in ablations.ABLATIONS.items()},
    "intext": intext.intext_variant,
}

PINS = {
    "placement": "48d3fc7e4fb719963e3db404dc7524f6e15a4d89541a18df7f465ca8e83a5231",
    "fault": "b90d8b54f9af17a470c26ba6991f2c015540415b3e3b85ad714c7da33b07e458",
    "dcc": "b6011e0e7105a2e572e790d6f7179dabb4ca7d3dae31d19b7e2d26a3025f6588",
    "ablation-lockpoll": "6cc57b73a15841d31af7cb411d2801cec87621f790de4ee13c2c52f0bb6441aa",
    "ablation-models": "fa70181d19d85a7078593c31e1ed95436d5c0fb8baf5f7459db2ea6f17b95f7d",
    "ablation-nowait": "1bbc030fbc2b8fd5f4d28247743163724bd29e04473819c221b88236a8e79f62",
    "ablation-ppn": "8991b99a0ef32d5a83d48e0fb7f62f224df4fc43734747ad25d12283980db73f",
    "intext": "ef1c9c94d18aa3863fe37eb20e0b006f0db4b981a8654f73aadcb233bcbfa32f",
}


@pytest.mark.parametrize("kind", sorted(PINS))
def test_variant_report_is_byte_pinned(kind):
    result = figures.run_variant(BUILDERS[kind](), scale="tiny", seed=0)
    text = result.to_text()
    assert result.all_passed, text
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[kind], text
