#!/usr/bin/env python
"""Gallery: the chunk-size profile of every DLS technique.

Prints, for each registered technique, the serial chunk-size sequence
on a reference loop — the "DLS spectrum" from fully static to fully
dynamic that the paper's Section 2 surveys — plus a one-run comparison
of their load-balancing quality on an imbalanced workload.

Run:  python examples/technique_gallery.py
"""

from repro import minihpc, run_hierarchical
from repro.core import IterationProfile, TECHNIQUES, unroll
from repro.workloads import mandelbrot_workload

N, P = 1000, 8
PROFILE = IterationProfile(mu=1e-3, sigma=0.4e-3)


def sequence_of(name: str):
    technique = TECHNIQUES[name]
    calc = technique.make(N, P, profile=PROFILE, weights=None)
    return [c.size for c in unroll(calc)]


def main() -> None:
    print(f"chunk-size sequences for N={N}, P={P} "
          "(first 10 chunks, then count):\n")
    for name in sorted(TECHNIQUES):
        seq = sequence_of(name)
        head = ", ".join(f"{s:>3}" for s in seq[:10])
        print(f"  {name:<7} [{head}{', ...' if len(seq) > 10 else ''}]  "
              f"-> {len(seq)} chunks")

    print("\nscheduling quality on imbalanced Mandelbrot (4 nodes x 8):")
    workload = mandelbrot_workload(width=96, height=96, max_iter=256,
                                   region=(-2.5, 1.0, -1.25, 0.0))
    cluster = minihpc(4, 8)
    print(f"  {'technique':<8} {'T(s)':>9} {'cov':>6} {'chunks':>7}")
    for name in ("STATIC", "SS", "GSS", "TAP", "TSS", "TFSS", "FAC",
                 "FAC2", "mFSC", "AF", "AWF-B", "RND"):
        result = run_hierarchical(
            workload, cluster, inter=name, intra="GSS", approach="mpi+mpi",
            ppn=8, seed=0, collect_chunks=False,
            inter_profile=workload.profile(),
        )
        print(f"  {name:<8} {result.parallel_time:>9.4f} "
              f"{result.metrics.cov_finish:>6.3f} "
              f"{result.metrics.total_chunks:>7}")
    print("\n(the adaptive techniques shine on heterogeneous clusters — "
        "see tests/test_models_heterogeneous.py)")


if __name__ == "__main__":
    main()
