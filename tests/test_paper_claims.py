"""The paper's findings that the ablations and the in-text numbers
reproduce, each asserted through its report's shape checks at
``scale="quick"``.

One case per report, named by the paper section it speaks to; a failing
case prints the whole report.
"""

import pytest

from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import run_variant
from repro.experiments.intext import intext_variant

CLAIMS = [
    # (paper section, report builder)
    ("Sec. 5: A-1 X+SS penalty is a lock-polling artefact [38]", ABLATIONS["lockpoll"]),
    ("Sec. 2: A-2 hierarchy beats centralised master-worker", ABLATIONS["models"]),
    ("Sec. 6: A-3 nowait removes the hybrid's barrier cost", ABLATIONS["nowait"]),
    ("Sec. 5: A-4 SS penalty grows with ppn, STATIC win persists", ABLATIONS["ppn"]),
    ("Sec. 5: E-N1/E-N2 in-text directions", intext_variant),
]


@pytest.mark.parametrize(
    "section, build", CLAIMS, ids=[section for section, _ in CLAIMS]
)
def test_paper_claim_holds_at_quick_scale(section, build):
    result = run_variant(build(), scale="quick", seed=0)
    assert result.all_passed, f"{section}\n{result.to_text()}"
