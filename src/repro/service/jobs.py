"""Cell jobs for the job server: what one requested cell is, and how a
pool worker simulates it.

The server resolves every requested cell through the one
:class:`~repro.experiments.parallel.CellExecutor` (re-exported here), in
order:

1. the shared on-disk :class:`~repro.experiments.parallel.CellCache`
   (hit → no work at all);
2. the **in-flight registry** — an in-process map ``cell_key →
   Future`` so concurrent requests wanting the same cell attach to one
   already-running simulation instead of starting a second (the
   cross-request analogue of the cache: exactly-once under concurrent
   duplicates);
3. the executor's process pool, which runs :func:`run_cell_job` on a
   :class:`CellJob`'s payload.  It is the pool ``GridRunner`` sweeps
   use, with the same crash policy: a dead worker's pool is replaced
   and its unfinished cells run once more.

Completion publishes to the cache *before* releasing the registry
entry, so at any instant a duplicate request finds the cell in at
least one of the two layers — there is no window in which it would
re-simulate.

Workers receive only the small :class:`CellJob`: its sweep spec names
the workload (``app``/``scale``), and each worker process rebuilds it
once via the per-process workload cache — the large cost vector never
crosses the pipe.

Unit and index conventions: ``uptime_s`` is host seconds and
``cells_per_s`` completed cells per host second; a cell's ``time`` is
simulated seconds.  A job is sized by its node *count* and ``ppn``
ranks per node; no node index or rank identifies a job, only its
``cell_key``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.parallel import CellExecutor
from repro.service.spec import SweepSpec

__all__ = ["CellExecutor", "CellJob", "run_cell_job"]


@dataclass(frozen=True)
class CellJob:
    """One cell to simulate: its sweep spec plus the grid coordinates."""

    key: str
    spec: SweepSpec
    approach: str
    inter: str
    intra: str
    nodes: int


def run_cell_job(job: CellJob):
    """Pool-worker entry: simulate one cell of a validated sweep spec.

    Module-level (picklable) on purpose.  The workload is rebuilt from
    its name via the per-process cache in
    :mod:`repro.experiments.workloads`, so repeated jobs in one worker
    pay the construction cost once.
    """
    from repro.experiments.harness import simulate_cell

    spec = job.spec
    return simulate_cell(
        spec.workload(), spec.cluster(job.nodes),
        job.approach, job.inter, job.intra, job.nodes, spec.ppn, spec.seed,
        costs=spec.cost_model(), placement=spec.placement, faults=spec.fault_model(),
    )
