"""Sweep-as-a-service: a concurrent HTTP job server over the cell cache.

The :mod:`repro.experiments.parallel` subsystem already content-
addresses every grid cell and fans misses out over a process pool —
the shape of a service.  This package adds the long-lived front end:

* :class:`~repro.service.spec.SweepSpec` — a JSON sweep request
  (workload name/params, cluster shape, approach × technique × nodes
  grid, seed, costs/placement/faults — everything
  :func:`~repro.experiments.parallel.cell_key` discriminates).
* :class:`~repro.service.jobs.CellExecutor` — a bounded process pool
  layered under an in-process *in-flight registry*: concurrent requests
  wanting the same cell share one simulation (exactly-once), and every
  completed cell is published to the shared on-disk
  :class:`~repro.experiments.parallel.CellCache`.
* :class:`~repro.service.server.SweepServer` — a stdlib
  ``ThreadingHTTPServer`` speaking ``POST /sweep`` (NDJSON streaming),
  ``GET /metrics``, ``GET /healthz`` and ``POST /shutdown``; run it
  with ``repro-serve`` / ``python -m repro.service`` / ``repro serve``.

See ``docs/SERVICE.md`` for the HTTP API and dedup semantics.
"""

from repro.service.jobs import CellExecutor, CellJob
from repro.service.server import SweepServer, create_server, main
from repro.service.spec import SpecError, SweepSpec

__all__ = [
    "CellExecutor",
    "CellJob",
    "SpecError",
    "SweepSpec",
    "SweepServer",
    "create_server",
    "main",
]
