"""Parallel cell execution and a content-addressed result cache.

The figure sweeps are embarrassingly parallel: every ``(approach, inter,
intra, nodes)`` cell is an independent, deterministic simulation.  This
module supplies the layers that :class:`~repro.experiments.harness.
GridRunner` and the sweep service share:

* :class:`CellCache` — an on-disk JSON cache keyed by a SHA-256 digest
  of everything a cell's result depends on (:func:`cell_key`): the
  workload fingerprint (name + cost bytes), the cluster spec, approach
  (``"dcc"`` included), inter/intra techniques, node count, ppn, seed,
  the cost-model override, the window placement, the fault-model
  signature, the default cost/noise model signature and the format
  version.  A second sweep over the same inputs runs zero simulations;
  changing any input misses cleanly.  Within one process a repeat read
  of an unchanged file decodes nothing: :meth:`CellCache.get` compares
  the file's bytes with its last valid read of that path.
* :class:`CellExecutor` — the one process pool: built on the first
  miss, replaced when a worker dies (the dead pool's unfinished cells
  run once more), plus the service's in-flight registry.
* :func:`run_cells` — a fan-out over that executor.  The workload cost
  vector reaches each worker once, through the pool initializer (a
  pickled workload drops its executor closure).  Every cell is
  simulated with its own freshly seeded
  :class:`~repro.sim.engine.Simulator`, so parallel results equal a
  serial sweep cell for cell (``wall_seconds``, host time, excepted).

Index convention: a cell is sized by its node *count* and ``ppn`` ranks
per node; no node index enters a key, and the only ranks in one are the
global ranks named by an explicit placement map or a fault event.  Cost
and fault times are in seconds, as everywhere in :mod:`repro.cluster`.

In the spirit of the paper's distributed-chunk-calculation argument,
this removes the serial coordinator from figure regeneration: work that
does not depend on other work does not wait for it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _quote
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.costs import CostModel, DEFAULT_COSTS
from repro.cluster.machine import ClusterSpec
from repro.cluster.noise import MILD_NOISE
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.faults import FaultModel
    from repro.experiments.harness import Cell
    from repro.service.jobs import CellJob

#: (approach, inter, intra, nodes) — one grid cell to simulate
CellSpec = Tuple[str, str, str, int]

#: a window-placement argument as accepted by ``simulate_cell``
PlacementArg = Union[str, Mapping]

# v6: the technique roster changed semantics — RND is now
# seeded-deterministic (same key, different schedule than the
# rng-consuming v5 behaviour), TAP estimates (mu, sigma) at runtime,
# FISS/VISS joined the roster, and configurable ADAPT ladders
# (``ADAPT[ss,fac2,tss]`` spellings) appear verbatim in the
# inter/intra key fields — pre-roster cells must never be reused.
# v5: keys carry the dcc flag (an mpi+mpi stack rerouted through the
# distributed-chunk-calculation model simulates a different protocol
# from the same spec, so the two must never collide).  v4 added fault
# counters (n_failures / n_reexecuted) and the fault-model signature;
# v3 NUMA-tier cluster signatures, placement_cost, and the
# cost-model/placement key fields.
CACHE_FORMAT_VERSION = 6


# ---------------------------------------------------------------------------
# fingerprints and cache keys
# ---------------------------------------------------------------------------
def workload_fingerprint(workload: Workload) -> str:
    """Content hash of a workload: its name plus exact cost bytes.

    Any change to the iteration costs — different scale, different
    kernel parameters, a rescaled copy — changes the fingerprint.  A
    :class:`Workload` remembers its fingerprint together with the
    ``costs`` array and name it hashed, so a repeat call on the same
    object costs two identity checks; replacing ``costs`` (the array is
    never edited in place: the prefix table is built from it once)
    recomputes it.
    """
    memo = getattr(workload, "_fingerprint", None)
    if memo is not None and memo[0] is workload.costs and memo[1] == workload.name:
        return memo[2]
    digest = hashlib.sha256()
    digest.update(workload.name.encode("utf-8"))
    digest.update(str(workload.n).encode("ascii"))
    # The dtype is part of the identity: byte-identical buffers of
    # different dtypes (an int64 array vs its float64 reinterpretation)
    # describe different cost vectors and must not share a key.
    digest.update(workload.costs.dtype.str.encode("ascii"))
    digest.update(workload.costs.tobytes())
    fingerprint = digest.hexdigest()
    if isinstance(workload, Workload):
        workload._fingerprint = (workload.costs, workload.name, fingerprint)
    return fingerprint


def cluster_signature(cluster: ClusterSpec) -> List:
    """JSON-friendly identity of a cluster spec (names excluded)."""
    return [
        [
            [node.cores, node.core_speed, node.sockets, node.numa_per_socket]
            for node in cluster.nodes
        ],
        cluster.network_latency,
        cluster.network_bandwidth,
    ]


def placement_signature(placement: PlacementArg) -> object:
    """JSON-friendly, hashable identity of a window-placement argument."""
    if isinstance(placement, str):
        return placement
    return tuple(sorted((repr(key), int(rank)) for key, rank in placement.items()))


def model_signature() -> Dict[str, object]:
    """Identity of the cost/noise models the simulation resolves to.

    ``simulate_cell`` always runs with the package defaults, but those
    defaults are code: a PR that tunes a cost constant (say the
    lock-poll interval behind the paper's X+SS result) changes every
    simulated number, and the cache must miss — without anyone
    remembering to bump ``CACHE_FORMAT_VERSION``.
    """
    return {"costs": asdict(DEFAULT_COSTS), "noise": asdict(MILD_NOISE)}


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


# Guards the writers of the module's bounded memos; their readers only
# ever call ``dict.get``, which is atomic, and take no lock.
_MEMO_LOCK = threading.Lock()


def _remember(memo: Dict, cap: int, key: object, value: object) -> None:
    """Insert into a bounded memo, evicting the oldest entries (FIFO)."""
    with _MEMO_LOCK:
        while len(memo) >= cap:
            memo.pop(next(iter(memo)), None)
        memo[key] = value


#: cluster signature JSON by ``id(cluster)``; each entry holds its
#: cluster, so an id is never reused while its entry lives
_CLUSTER_JSON: Dict[int, Tuple[ClusterSpec, str]] = {}
_CLUSTER_JSON_CAP = 64


def _cluster_json(cluster: ClusterSpec) -> str:
    """The cluster's signature JSON, serialised once per cluster object.

    Keyed by identity, not value: a value lookup hashes and compares
    every :class:`NodeSpec`, which made the cluster the one part of a
    repeat key that grew with the node count.  Equal clusters built
    separately serialise to the same string, so keys are unchanged.
    """
    entry = _CLUSTER_JSON.get(id(cluster))
    if entry is not None and entry[0] is cluster:
        return entry[1]
    text = _dumps(cluster_signature(cluster))
    _remember(_CLUSTER_JSON, _CLUSTER_JSON_CAP, id(cluster), (cluster, text))
    return text


#: (DEFAULT_COSTS, MILD_NOISE, their "models" key field) last serialised
_MODELS_JSON: Optional[Tuple[CostModel, object, str]] = None


def _models_json() -> str:
    """The ``"models":{...}`` key field of :func:`model_signature`,
    serialised once per pair of default-model objects.  The objects are
    frozen, so identity implies value; rebinding a default (retuning a
    cost constant) is a new object and re-serialises."""
    global _MODELS_JSON
    memo = _MODELS_JSON
    if memo is None or memo[0] is not DEFAULT_COSTS or memo[1] is not MILD_NOISE:
        text = _dumps({"models": model_signature()})[1:-1]
        memo = _MODELS_JSON = (DEFAULT_COSTS, MILD_NOISE, text)
    return memo[2]


@functools.lru_cache(maxsize=64, typed=True)
def _sweep_json(workload_fp, ppn, seed, costs, placement, faults):
    """The key fields that do not vary within a sweep, as the two runs
    of ``"field":value`` pairs that sit around the per-cell fields in
    sorted-key order (the default models' field is :func:`_models_json`).
    Memoised by value (frozen dataclasses hash by field)."""
    costs_json = _dumps(None if costs is None else asdict(costs))
    faults_json = _dumps(None if faults is None else faults.signature())
    placement_to_workload = _dumps(dict(
        placement=placement, ppn=ppn, seed=seed,
        version=CACHE_FORMAT_VERSION, workload=workload_fp,
    ))[1:-1]
    return (
        # "dcc" is the retired v5 reroute flag, now always false (dCC
        # cells are keyed by approach="dcc"); it stays in the payload so
        # every key and cache entry written under v6 stays valid
        f'"costs":{costs_json},"dcc":false,"faults":{faults_json}',
        placement_to_workload,
    )


def cell_key(
    workload_fp: str,
    cluster: ClusterSpec,
    approach: str,
    inter: str,
    intra: str,
    nodes: int,
    ppn: int,
    seed: int,
    costs: Optional[CostModel] = None,
    placement: PlacementArg = "leader",
    faults: Optional["FaultModel"] = None,
) -> str:
    """Content-addressed cache key for one grid cell.

    ``costs`` is the sweep's cost-model *override* (None = the package
    default, whose identity is already folded in via
    :func:`model_signature`); ``placement`` the window-home policy;
    ``faults`` the fault schedule (an *inactive* model keys identically
    to ``None`` — both produce the fault-free event stream).  The
    execution model is named by ``approach`` alone, so a dCC cell
    (``approach="dcc"``) and an mpi+mpi cell of the same stack key
    apart.

    The payload is the sorted-key compact JSON of all inputs; only the
    per-cell fields are encoded per call (strings quoted as ``json``
    quotes them), the rest is spliced in.
    """
    costs_to_faults, placement_to_workload = _sweep_json(
        workload_fp, ppn, seed, costs, placement_signature(placement), faults,
    )
    payload = (
        f'{{"approach":{_quote(approach)},"cluster":{_cluster_json(cluster)},'
        f'{costs_to_faults},"inter":{_quote(inter)},"intra":{_quote(intra)},'
        f'{_models_json()},"nodes":{nodes},{placement_to_workload}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: most cache files whose last valid read :meth:`CellCache.get` keeps
#: (the eight paper figures are 256 cells; an entry is about 1 KB)
READ_MEMO_CAP = 2048

#: cache file path -> (its bytes at the last valid read, the decoded Cell)
_READ_MEMO: Dict[str, Tuple[bytes, "Cell"]] = {}

#: absolute cache root -> ``time.monotonic()`` of its last temp-file reap
#: in this process
_LAST_REAP: Dict[str, float] = {}

#: bytes asked of each ``os.read`` by :meth:`CellCache.get`: a cache
#: file is about 450 bytes, so one read returns it whole.  ``os.read``
#: allocates the whole request first; 64 KiB raised the sweep server's
#: peak RSS by 1.3 MB
_READ_BLOCK = 4 * 1024


def _read_file(path: str) -> bytes:
    """The whole file at ``path``: one raw descriptor, read to EOF."""
    fd = os.open(path, os.O_RDONLY)
    try:
        raw = os.read(fd, _READ_BLOCK)
        while True:
            more = os.read(fd, _READ_BLOCK)
            if not more:
                return raw
            raw += more
    finally:
        os.close(fd)


class CellCache:
    """Directory of ``<key>.json`` files holding serialized Cells.

    The cache is safe to share between processes (writers publish via
    ``mkstemp`` + atomic ``os.replace``; readers only ever see complete
    files) and between threads of one process: the ``hits``/``misses``/
    ``quarantined``/``reaped`` statistics are guarded by a single lock
    so a threaded server can hammer one instance from many handlers
    without losing counts.  The read path itself stays lock-free — the
    lock covers only the counter increments, never the file I/O; a read
    that decodes a file also takes the read memo's lock to record it.

    A repeat read of an unchanged file in one process is one raw file
    read and a bytes comparison (see :meth:`get`).  The memo does not
    trust ``stat``: file times tick coarsely, so a same-size rewrite
    within one tick would be served stale, while comparing the bytes
    keeps the quarantine and version contracts by construction.

    Construction reaps ``*.tmp`` files older than ``reap_age_s``
    seconds, left by writers that died mid-:meth:`put`.  A process
    lists each root for this at most once per ``reap_age_s``: a later
    instance on the same root within that window lists nothing and
    reaps nothing (its ``reaped`` stays 0).  An orphan is still reaped,
    at most ``reap_age_s`` later than a listing at every construction
    would reap it.
    """

    #: ``*.tmp`` files older than this (seconds) are leftovers of a
    #: writer that died between ``mkstemp`` and ``os.replace``; younger
    #: ones may belong to an in-flight racing sweep and are never touched
    REAP_AGE_S = 3600.0

    def __init__(self, root: str, reap_age_s: float = REAP_AGE_S):
        self.root = root
        if os.path.exists(root) and not os.path.isdir(root):
            raise NotADirectoryError(
                f"cell cache path {root!r} exists and is not a directory"
            )
        os.makedirs(root, exist_ok=True)
        self._prefix = os.path.join(root, "")
        self.hits = 0
        self.misses = 0
        #: corrupt or stale-format files moved aside (never re-read)
        self.quarantined = 0
        #: orphaned temp files deleted on init (crashed writers)
        self.reaped = 0
        self._stats_lock = threading.Lock()
        self._reap_stale_tmp(reap_age_s)

    def _reap_stale_tmp(self, reap_age_s: float) -> None:
        """Delete temp files orphaned by writers that died mid-``put``.

        A process killed between ``mkstemp`` and ``os.replace`` leaves
        its ``*.tmp`` behind forever.  Age-gating the reap means a slow
        writer racing this init keeps its in-flight file: anything
        younger than ``reap_age_s`` is presumed live.  A root this
        process listed less than ``reap_age_s`` seconds ago is not
        listed again; a file too young then waits for the next listing.
        """
        root = os.path.abspath(self.root)
        now = time.monotonic()
        last = _LAST_REAP.get(root)
        if last is not None and now - last < reap_age_s:
            return
        cutoff = time.time() - reap_age_s
        for name in os.listdir(self.root):
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.root, name)
            try:
                if os.path.getmtime(path) < cutoff:
                    os.unlink(path)
                    self.reaped += 1
            except OSError:
                pass  # vanished under us (racing reaper) — fine
        _LAST_REAP[root] = now

    def _count(self, stat: str) -> None:
        with self._stats_lock:
            setattr(self, stat, getattr(self, stat) + 1)

    def stats(self) -> Dict[str, int]:
        """Consistent snapshot of the hit/miss/quarantine/reap counters."""
        with self._stats_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "quarantined": self.quarantined,
                "reaped": self.reaped,
            }

    def _path(self, key: str) -> str:
        return self._prefix + key + ".json"

    def _quarantine(self, key: str) -> None:
        """Move a bad cache file aside so it is diagnosable but can
        never satisfy (or repeatedly fail) a future lookup."""
        path = self._path(key)
        try:
            os.replace(path, path + ".corrupt")
            self._count("quarantined")
        except OSError:
            pass  # already gone (racing sweep) — nothing to preserve

    def get(self, key: str) -> Optional["Cell"]:
        """The cached cell for ``key``, or None on a miss; a corrupt or
        stale-format file counts as a miss and is quarantined.

        The file is read on every call, through one raw descriptor
        (``os.open``, ``os.read`` to EOF, ``os.close``).  When its bytes
        equal those of the last valid read of the same path in this
        process (the module's read memo, at most :data:`READ_MEMO_CAP`
        files), the :class:`Cell` decoded then is returned: equal bytes
        decode to an equal cell, and a cell is frozen, so it is safe to
        share.  Any other bytes take the full decode and checks below.
        """
        from repro.experiments.harness import Cell

        path = self._path(key)
        try:
            raw = _read_file(path)
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError:
            # disk hiccup, or the path is not a readable file
            self._quarantine(key)
            self._count("misses")
            return None
        memo = _READ_MEMO.get(path)
        if memo is not None and memo[0] == raw:
            self._count("hits")
            return memo[1]
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            # truncated write or hand-edited garbage
            self._quarantine(key)
            self._count("misses")
            return None
        if not isinstance(payload, dict) or payload.get("version") != CACHE_FORMAT_VERSION:
            # stale format: quarantine rather than delete, so a version
            # rollback can still inspect (but never silently reuse) it
            self._quarantine(key)
            self._count("misses")
            return None
        try:
            return_value = Cell.from_dict(payload["cell"])
        except (KeyError, TypeError):
            # schema drift within the same version number (should not
            # happen, but a corrupt payload must not kill the sweep)
            self._quarantine(key)
            self._count("misses")
            return None
        _remember(_READ_MEMO, READ_MEMO_CAP, path, (raw, return_value))
        self._count("hits")
        return return_value

    def put(self, key: str, cell: "Cell") -> None:
        """Publish ``cell`` under ``key``: concurrent writers (parallel
        sweeps sharing a cache directory) each rename a complete temp
        file into place, so no reader ever sees a partial write."""
        payload = {"version": CACHE_FORMAT_VERSION, "key": key, "cell": cell.to_dict()}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".json"))


# ---------------------------------------------------------------------------
# the cell executor: one process pool, one crash policy
# ---------------------------------------------------------------------------
# Per-worker context, installed once by the pool initializer so the cost
# vector crosses the process boundary a single time per worker.
_WORKER_CTX: Optional[Tuple] = None


def _init_worker(
    workload: Workload,
    ppn: int,
    seed: int,
    costs: Optional[CostModel] = None,
    placement: PlacementArg = "leader",
    faults: Optional["FaultModel"] = None,
    engine: str = "scalar",
) -> None:
    global _WORKER_CTX
    _WORKER_CTX = (workload, ppn, seed, costs, placement, faults, engine)


def _run_cell_in_worker(task: Tuple[CellSpec, ClusterSpec]) -> "Cell":
    from repro.experiments.harness import simulate_cell

    (approach, inter, intra, nodes), cluster = task
    workload, ppn, seed, costs, placement, faults, engine = _WORKER_CTX
    return simulate_cell(
        workload, cluster, approach, inter, intra, nodes, ppn, seed,
        costs=costs, placement=placement, faults=faults, engine=engine,
    )


class CellExecutor:
    """A process pool that survives a dead worker, plus an in-flight
    registry over a shared cache.

    The pool of ``jobs`` workers, each set up by ``initializer(*initargs)``,
    is built on the first :meth:`submit`.  When a worker dies, whether a
    pool future or ``submit`` reports it, the broken pool is retired once
    under the lock (``pool_restarts``) and every call it left unfinished
    runs once more on a new pool; a call still unfinished when a second
    pool breaks fails with ``BrokenProcessPool``.  An exception the
    called function raises is deterministic for a simulation: returned
    as is, never retried.  A retired pool is joined by a thread of its
    own, never from its own callback thread.

    :meth:`resolve` serves the sweep service's handler threads, which
    share one instance: cache probe, then the in-flight registry
    (concurrent requests for one cell share one simulation), then the
    pool.  One lock guards the registry, the pools and the counters.
    """

    def __init__(self, cache: Optional[CellCache] = None, jobs: int = 2,
                 initializer: Optional[Callable] = None, initargs: Tuple = ()):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.max_workers = jobs
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._reapers: List[threading.Thread] = []  # joining broken pools
        self._closed = False
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._started = time.monotonic()
        # lifetime counters (under _lock)
        self.simulated = 0  # cells submitted by resolve (not attempts)
        self.completed = 0  # those simulations finished (ok or errored)
        self.dedup_hits = 0  # requests attached to an in-flight future
        self.cache_hits = 0  # requests served from the on-disk cache
        self.errors = 0  # those simulations that failed
        self.cache_put_errors = 0  # results that streamed but were not cached
        self.pool_restarts = 0  # broken pools retired

    # ------------------------------------------------------------------
    def submit(self, fn: Callable, arg: object) -> Future:
        """Run ``fn(arg)`` in a pool worker; the Future outlives one
        pool crash.  ``fn`` must be picklable (module level)."""
        future: Future = Future()
        self._dispatch(fn, arg, future, 0)
        return future

    def _live_pool(self) -> ProcessPoolExecutor:
        """The current pool, built if there is none (under ``_lock``)."""
        if self._closed:
            raise RuntimeError("cell executor is shut down")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                self.max_workers, initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._pool

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        """Retire ``pool`` if it is still the current one (under
        ``_lock``): every call that saw it break asks, the first wins.
        A thread of its own joins it and frees its pipes, since this may
        run on the pool's own callback thread."""
        if self._pool is pool:
            self._pool = None
            self.pool_restarts += 1
            reaper = threading.Thread(target=pool.shutdown, daemon=True)
            reaper.start()
            self._reapers = [t for t in self._reapers if t.is_alive()] + [reaper]

    def _dispatch(self, fn: Callable, arg: object, future: Future, breaks: int) -> None:
        with self._lock:
            pool = self._live_pool()
            try:
                raw = pool.submit(fn, arg)
            except BrokenProcessPool:  # before its futures reported it
                self._retire(pool)
                pool = self._live_pool()  # a new pool has no dead worker yet
                raw = pool.submit(fn, arg)
        # outside the lock: the callback takes it, and runs right here
        # if ``raw`` is already done
        raw.add_done_callback(
            functools.partial(self._settle, fn, arg, future, breaks, pool)
        )

    def _settle(self, fn, arg, future: Future, breaks: int, pool, raw: Future) -> None:
        """Done-callback of a pool future: run the call again if this is
        the first pool it saw break, else resolve the caller's Future."""
        error = raw.exception()
        if isinstance(error, BrokenProcessPool):
            with self._lock:
                self._retire(pool)
            if breaks == 0:
                try:
                    self._dispatch(fn, arg, future, 1)
                    return
                except RuntimeError as closed:  # shut down since
                    error = closed
        if error is None:
            future.set_result(raw.result())
        else:
            future.set_exception(error)

    # ------------------------------------------------------------------
    def resolve(self, job: "CellJob") -> Tuple[Future, str]:
        """Resolve one cell of a sweep request to a Future plus its source.

        Source is ``"cache"`` (already done, Future is pre-completed),
        ``"inflight"`` (another request is simulating it right now —
        attach) or ``"simulated"`` (this call submitted it).  The
        cache probe happens under the registry lock so check-then-
        register is atomic: two racing duplicates can never both
        submit.  After :meth:`shutdown` a miss fails with RuntimeError.
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
            # The registry holds a *publish-gated* future, not the pool
            # future: it resolves only after the cache put and the
            # registry release, so anything waiting on it (a streaming
            # handler, an attached duplicate) observes a fully
            # published cell.  Pool waiters wake before done-callbacks
            # run, so gating is what makes "trailer received ⇒ cells
            # cached" true.
            published = Future()
            self._inflight[job.key] = published
            self.simulated += 1
        from repro.service.jobs import run_cell_job  # service imports this module

        try:
            outcome = self.submit(run_cell_job, job)
        except RuntimeError as closed:  # shut down: fail it, release the key
            outcome = Future()
            outcome.set_exception(closed)
        outcome.add_done_callback(
            functools.partial(self._publish, job.key, published)
        )
        return published, "simulated"

    def _publish(self, key: str, published: Future, outcome: Future) -> None:
        """Publish to the cache, release the registry, resolve waiters.

        Order matters: once the key leaves the registry a duplicate
        request must find the cell on disk, so the ``put`` happens
        first.  Failed simulations are never cached — the key is simply
        released and a later request will retry.
        """
        error = outcome.exception()
        put_failed = False
        if error is None and self.cache is not None:
            try:
                self.cache.put(key, outcome.result())
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
            published.set_result(outcome.result())

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """Snapshot of executor + cache counters for ``GET /metrics``."""
        with self._lock:
            in_flight = len(self._inflight)
            snapshot: Dict[str, object] = {
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
                "pool_restarts": self.pool_restarts,
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
        """Refuse new calls and stop every pool, broken ones included
        (running calls finish first if ``wait``)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            reapers, self._reapers = self._reapers, []
        if pool is not None:
            pool.shutdown(wait=wait)
        for reaper in reapers if wait else ():
            reaper.join()


def run_cells(
    workload: Workload,
    specs: Sequence[CellSpec],
    clusters: Sequence[ClusterSpec],
    ppn: int,
    seed: int,
    jobs: int,
    on_result: Optional[Callable[[int, "Cell"], None]] = None,
    costs: Optional[CostModel] = None,
    placement: PlacementArg = "leader",
    faults: Optional["FaultModel"] = None,
    engine: str = "scalar",
) -> List["Cell"]:
    """Simulate ``specs`` (with matching ``clusters``) on ``jobs`` processes.

    Results come back in input order.  ``on_result(index, cell)`` fires
    as each cell completes (completion order under a pool) so callers
    can stream progress.  ``jobs <= 1``, or at most one cell, runs
    inline; otherwise a :class:`CellExecutor` of ``min(jobs, cells)``
    workers runs them, with the workload shipped once per worker by the
    pool initializer.  ``costs``/``placement``/``faults`` apply to
    every cell (see :func:`repro.experiments.harness.simulate_cell`).

    A dead worker does not abort the sweep: its cells run again on a
    new pool (see :class:`CellExecutor`).  A cell that fails — its
    simulation raised, or it outlived two broken pools — does not stop
    the others either; once every cell has finished and the pool has
    shut down, the first failure in input order is raised.
    """
    from repro.experiments.harness import simulate_cell

    if jobs <= 1 or len(specs) <= 1:
        cells = []
        for index, (spec, cluster) in enumerate(zip(specs, clusters)):
            cell = simulate_cell(
                workload, cluster, *spec, ppn, seed,
                costs=costs, placement=placement, faults=faults, engine=engine,
            )
            if on_result is not None:
                on_result(index, cell)
            cells.append(cell)
        return cells

    executor = CellExecutor(
        jobs=min(jobs, len(specs)),
        initializer=_init_worker,
        initargs=(workload, ppn, seed, costs, placement, faults, engine),
    )
    results: List[Optional["Cell"]] = [None] * len(specs)
    errors: List[Optional[BaseException]] = [None] * len(specs)
    try:
        futures = {
            executor.submit(_run_cell_in_worker, task): index
            for index, task in enumerate(zip(specs, clusters))
        }
        for future in as_completed(futures):
            index = futures[future]
            errors[index] = future.exception()
            if errors[index] is None:
                results[index] = future.result()
                if on_result is not None:
                    on_result(index, results[index])
    finally:
        executor.shutdown()
    for error in errors:
        if error is not None:
            raise error
    return results
