"""Execution models (S7): how hierarchical DLS actually runs.

* :class:`~repro.models.mpi_mpi.MpiMpiModel` — the paper's proposed
  MPI+MPI approach: a global RMA work queue plus a per-node
  shared-memory local queue; ``ppn`` MPI processes per node; the
  fastest free process refills the local queue; no barriers anywhere.
* :class:`~repro.models.mpi_openmp.MpiOpenMpModel` — the baseline
  hybrid: one MPI process per node, a simulated OpenMP team per
  process, implicit barrier after every chunk.
* :class:`~repro.models.flat_mpi.FlatMpiModel` — non-hierarchical
  distributed chunk calculation (every rank goes straight to the
  global queue; Eleliemy & Ciorba PDP 2019), an ablation showing what
  the local queue buys.
* :class:`~repro.models.master_worker.MasterWorkerModel` — the classic
  centralised master-worker (DLB-tool style, two-sided messages), the
  historical baseline whose bottleneck motivated hierarchies.
* :class:`~repro.models.dcc.DccModel` — distributed chunk calculation
  (arXiv 2101.07050): the level stack is flattened ahead of time and
  every rank resolves its own chunk from one fetch-and-incremented
  counter — no coordinator, no queues, no locks on the hot path.

All times are simulated seconds.
"""

from repro.models.base import ExecutionModel, RunResult
from repro.models.dcc import DccModel
from repro.models.flat_mpi import FlatMpiModel
from repro.models.master_worker import MasterWorkerModel
from repro.models.mpi_mpi import MpiMpiModel
from repro.models.mpi_openmp import MpiOpenMpModel

__all__ = [
    "DccModel",
    "ExecutionModel",
    "FlatMpiModel",
    "MasterWorkerModel",
    "MpiMpiModel",
    "MpiOpenMpModel",
    "RunResult",
]
