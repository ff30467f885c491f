"""repro — Hierarchical Dynamic Loop Self-Scheduling, MPI+MPI vs MPI+OpenMP.

A production-quality reproduction of:

    A. Eleliemy and F. M. Ciorba, "Hierarchical Dynamic Loop
    Self-Scheduling on Distributed-Memory Systems Using an MPI+MPI
    Approach", 2019 (arXiv:1903.09510).

The package simulates a distributed-memory cluster (discrete-event
engine, MPI runtime with RMA/shared-memory windows, OpenMP runtime) and
implements hierarchical dynamic loop self-scheduling on top of it in
both of the paper's flavours:

* **MPI+MPI** (the paper's contribution) — global RMA work queue plus a
  per-node shared-memory local queue; no implicit barriers; the fastest
  free process refills the local queue.
* **MPI+OpenMP** (the baseline) — one MPI process per node obtaining
  chunks via distributed chunk calculation, executed by an OpenMP team
  with an implicit barrier per chunk.

Quick start::

    from repro import run_hierarchical, minihpc
    from repro.workloads import mandelbrot_workload

    wl = mandelbrot_workload(width=128, height=128)
    result = run_hierarchical(
        workload=wl, cluster=minihpc(4), approach="mpi+mpi",
        inter="GSS", intra="STATIC", ppn=16,
    )
    print(result.metrics.summary())

See README.md for the full tour and docs/ARCHITECTURE.md for the
architecture.

Conventions: times are simulated seconds unless a name says wall or
host; ranks are global MPI ranks, numbered node-major
(``rank = node index * ppn + core``).
"""

from repro.api import run_hierarchical, run_model
from repro.cluster import ClusterSpec, NodeSpec, minihpc
from repro.core import (
    TECHNIQUES,
    Chunk,
    HierarchicalSpec,
    IterationProfile,
    get_technique,
    list_techniques,
)

__version__ = "1.0.0"

__all__ = [
    "Chunk",
    "ClusterSpec",
    "HierarchicalSpec",
    "IterationProfile",
    "NodeSpec",
    "TECHNIQUES",
    "__version__",
    "get_technique",
    "list_techniques",
    "minihpc",
    "run_hierarchical",
    "run_model",
]
