"""Cell execution for the job server: process pool + in-flight dedup.

The server's concurrency story has three layers, resolved in order for
every requested cell:

1. the shared on-disk :class:`~repro.experiments.parallel.CellCache`
   (hit → no work at all);
2. the **in-flight registry** — an in-process map ``cell_key →
   Future`` so concurrent requests wanting the same cell attach to one
   already-running simulation instead of starting a second (the
   cross-request analogue of the cache: exactly-once under concurrent
   duplicates);
3. a bounded :class:`~concurrent.futures.ProcessPoolExecutor` that
   actually simulates misses, reusing
   :func:`~repro.experiments.harness.simulate_cell` — the same worker
   entry ``run_cells`` fans out over.

Completion publishes to the cache *before* releasing the registry
entry, so at any instant a duplicate request finds the cell in at
least one of the two layers — there is no window in which it would
re-simulate.

Workers receive only JSON-sized payloads: the sweep spec names its
workload (``app``/``scale``), and each worker process rebuilds it once
via the per-process workload cache — the large cost vector never
crosses the pipe.

Unit and index conventions: ``uptime_s`` is host seconds and
``cells_per_s`` completed cells per host second; a cell's ``time`` is
simulated seconds.  A job is sized by its node *count* and ``ppn``
ranks per node; no node index or rank identifies a job, only its
``cell_key``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.experiments.parallel import CellCache
from repro.service.spec import SweepSpec


@dataclass(frozen=True)
class CellJob:
    """One cell to simulate: its sweep spec plus the grid coordinates."""

    key: str
    spec: SweepSpec
    approach: str
    inter: str
    intra: str
    nodes: int

    def payload(self) -> Dict[str, Any]:
        """Pickle-light form shipped to the pool worker."""
        return {
            "sweep": self.spec.to_json(),
            "approach": self.approach,
            "inter": self.inter,
            "intra": self.intra,
            "nodes": self.nodes,
        }


def run_cell_job(payload: Dict[str, Any]):
    """Pool-worker entry: resolve the spec locally and simulate one cell.

    Module-level (picklable) on purpose.  The workload is rebuilt from
    its name via the per-process cache in
    :mod:`repro.experiments.workloads`, so repeated jobs in one worker
    pay the construction cost once.
    """
    from repro.experiments.harness import simulate_cell

    spec = SweepSpec.from_json(payload["sweep"])
    nodes = payload["nodes"]
    return simulate_cell(
        spec.workload(),
        spec.cluster(nodes),
        payload["approach"],
        payload["inter"],
        payload["intra"],
        nodes,
        spec.ppn,
        spec.seed,
        costs=spec.cost_model(),
        placement=spec.placement,
        faults=spec.fault_model(),
    )


class CellExecutor:
    """Bounded process pool + in-flight registry over a shared cache.

    One instance is shared by every handler thread of the server.  All
    mutable state (registry, statistics) is guarded by one lock; the
    pool's own thread-safety covers submission.
    """

    def __init__(self, cache: Optional[CellCache], jobs: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.max_workers = jobs
        self._pool = ProcessPoolExecutor(max_workers=jobs)
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._started = time.monotonic()
        # lifetime counters (under _lock)
        self.simulated = 0  # cells actually submitted to the pool
        self.completed = 0  # pool simulations finished (ok or errored)
        self.dedup_hits = 0  # requests attached to an in-flight future
        self.cache_hits = 0  # requests served from the on-disk cache
        self.errors = 0  # pool simulations that raised
        self.cache_put_errors = 0  # results that streamed but were not cached

    # ------------------------------------------------------------------
    def resolve(self, job: CellJob) -> Tuple[Future, str]:
        """Resolve one cell to a Future plus its source.

        Source is ``"cache"`` (already done, Future is pre-completed),
        ``"inflight"`` (another request is simulating it right now —
        attach) or ``"simulated"`` (this call submitted it).  The
        cache probe happens under the registry lock so check-then-
        register is atomic: two racing duplicates can never both
        submit.
        """
        with self._lock:
            published = self._inflight.get(job.key)
            if published is not None:
                self.dedup_hits += 1
                return published, "inflight"
            if self.cache is not None:
                cell = self.cache.get(job.key)
                if cell is not None:
                    self.cache_hits += 1
                    done: Future = Future()
                    done.set_result(cell)
                    return done, "cache"
            # The registry holds a *publish-gated* future, not the raw
            # pool future: it resolves only after the cache put and the
            # registry release, so anything waiting on it (a streaming
            # handler, an attached duplicate) observes a fully
            # published cell.  Pool waiters wake before done-callbacks
            # run, so gating is what makes "trailer received ⇒ cells
            # cached" true.
            published = Future()
            self._inflight[job.key] = published
            try:
                raw = self._pool.submit(run_cell_job, job.payload())
            except BaseException:  # pool shut down — do not leak the key
                self._inflight.pop(job.key, None)
                raise
            self.simulated += 1
        raw.add_done_callback(
            lambda fut, key=job.key, out=published: self._on_done(key, fut, out)
        )
        return published, "simulated"

    def _on_done(self, key: str, raw: Future, published: Future) -> None:
        """Publish to the cache, release the registry, resolve waiters.

        Order matters: once the key leaves the registry a duplicate
        request must find the cell on disk, so the ``put`` happens
        first.  Failed simulations are never cached — the key is simply
        released and a later request will retry.
        """
        error = raw.exception()
        put_failed = False
        if error is None and self.cache is not None:
            try:
                self.cache.put(key, raw.result())
            except OSError:
                # cache directory vanished / disk full: the result still
                # streams, and /metrics counts the missed publish
                put_failed = True
        with self._lock:
            self._inflight.pop(key, None)
            self.completed += 1
            if error is not None:
                self.errors += 1
            if put_failed:
                self.cache_put_errors += 1
        if error is not None:
            published.set_exception(error)
        else:
            published.set_result(raw.result())

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """Snapshot of executor + cache counters for ``GET /metrics``."""
        with self._lock:
            in_flight = len(self._inflight)
            snapshot = {
                "in_flight": in_flight,
                # cells submitted but not yet holding a worker slot
                # (estimate: the pool does not expose its queue)
                "queue_depth": max(0, in_flight - self.max_workers),
                "max_workers": self.max_workers,
                "simulated": self.simulated,
                "completed": self.completed,
                "dedup_hits": self.dedup_hits,
                "cache_hits": self.cache_hits,
                "errors": self.errors,
                "cache_put_errors": self.cache_put_errors,
                "uptime_s": time.monotonic() - self._started,
            }
        snapshot["cells_per_s"] = (
            snapshot["completed"] / snapshot["uptime_s"]
            if snapshot["uptime_s"] > 0
            else 0.0
        )
        snapshot["cache"] = self.cache.stats() if self.cache is not None else None
        return snapshot

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool (in-flight simulations finish if ``wait``)."""
        self._pool.shutdown(wait=wait)
