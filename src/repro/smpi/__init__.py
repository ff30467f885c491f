"""Simulated MPI runtime (substrate S3).

Models the MPI features the paper's implementations rely on, with
calibrated costs:

* **two-sided** point-to-point (``send``/``recv`` with tag matching,
  eager/rendezvous cost model) — used by the master-worker baseline;
* **collectives** (barrier, bcast, reduce/allreduce) with a log-tree
  cost model — used for loop start/end synchronisation;
* **one-sided RMA** (:class:`~repro.smpi.rma.Window`): remote atomics
  (``MPI_Fetch_and_op`` / ``MPI_Compare_and_swap``) serialised at the
  target — this is the *global work queue* of the distributed
  chunk-calculation approach;
* **MPI-3 shared memory** (:class:`~repro.smpi.shm.SharedWindow`,
  i.e. ``MPI_Win_allocate_shared``): per-node shared state guarded by
  ``MPI_Win_lock``/``MPI_Win_unlock`` with the *lock-polling* retry
  behaviour described by Zhao, Balaji & Gropp (ISPDC 2016) [38] and
  ``MPI_Win_sync`` memory barriers — this is the *local work queue*
  whose contention cost explains the paper's ``X+SS`` results.

Everything runs on :mod:`repro.sim`; per-rank code is written as
generator "main" functions receiving a :class:`~repro.smpi.world.RankCtx`.

All times and costs are simulated seconds.
"""

from repro.smpi.rma import Window
from repro.smpi.shm import SharedWindow
from repro.smpi.world import MpiWorld, RankCtx

__all__ = ["MpiWorld", "RankCtx", "SharedWindow", "Window"]
