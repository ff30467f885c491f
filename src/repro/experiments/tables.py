"""Table regeneration.

The paper has one table: Table 1, the mapping between DLS techniques
and OpenMP ``schedule`` clauses.  We regenerate it from the technique
registry (plus the LaPeSD-libGOMP extension rows the paper's Section 2
discusses) so the mapping is *derived from code*, not hand-written.

Conventions: the table is text only; it holds no times (a time
anywhere else in the package is seconds) and no rank or node index.
"""

from __future__ import annotations

from typing import List

from repro.core.techniques import TECHNIQUES


#: the rows the paper's Table 1 shows, in its order
PAPER_TABLE1_ROWS = ("STATIC", "SS", "GSS")


def table1(include_extensions: bool = True) -> str:
    """Render Table 1 (optionally with the research-runtime extensions)."""
    lines = [
        "Table 1: Mapping between the DLS techniques and the OpenMP "
        "schedule clause options",
        "",
        f"{'DLS technique':<16} {'OpenMP schedule clause':<28}",
        "-" * 44,
    ]
    for name in PAPER_TABLE1_ROWS:
        technique = TECHNIQUES[name]
        lines.append(f"{technique.name:<16} {technique.openmp_clause:<28}")
    if include_extensions:
        lines.append("")
        lines.append("LaPeSD-libGOMP research extensions (paper Sec. 2, [31]):")
        for name, technique in sorted(TECHNIQUES.items()):
            if technique.openmp_extension_clause:
                lines.append(
                    f"{technique.name:<16} {technique.openmp_extension_clause:<40}"
                )
    return "\n".join(lines)


def table1_rows() -> List[dict]:
    """Structured form of Table 1 for tests."""
    return [
        {
            "technique": name,
            "clause": TECHNIQUES[name].openmp_clause,
        }
        for name in PAPER_TABLE1_ROWS
    ]
