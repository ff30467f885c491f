"""Reproduce the paper's Section 5 in-text numbers (E-N1 / E-N2).

Quoted values: Mandelbrot GSS+STATIC — MPI+MPI 19.6 s (2 nodes) and
3.1 s (16 nodes) vs MPI+OpenMP 61.5 s and 4.5 s; PSIA GSS+STATIC —
233 s vs 245 s at 2 nodes.  The workloads are rescaled so total work
matches the paper's implied core-seconds; the benchmark prints
paper-vs-measured and asserts every *directional* statement (who wins
where, gap ordering) — absolute seconds are recorded, not asserted.
"""

from benchmarks.conftest import emit
from repro.experiments.intext import run_intext


def test_intext_numbers(benchmark, scale, seed):
    report = benchmark.pedantic(
        run_intext,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    emit(report)
    directional = [l for l in report.splitlines() if l.strip().startswith("[")]
    assert directional, "directional checks missing"
    failed = [l for l in directional if "[FAIL]" in l]
    assert not failed, "directional checks failed:\n" + "\n".join(failed)
