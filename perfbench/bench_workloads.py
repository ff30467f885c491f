"""The four benchmark workloads, each a closed loop over ``repro``'s public API.

A workload builds its inputs from the seed when constructed (that is
its set-up), performs one timed unit of work per :meth:`Workload.unit`
call, and reports per unit what it measured and what it produced.  The
product of every unit is compared with the pinned product of the seed
(``pins.json``) when there is one, and otherwise with the product of the
run's first unit, so every run checks the program's outputs.

``small=True`` shrinks every input so that the smoke test can run each
workload in about a second; the metrics and checks are the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from bench_tracing import lock_polls

#: where units create their temporary directories (ignored by git)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Unit:
    """What one timed unit of a workload measured and produced."""

    #: ``(start, end)`` ``perf_counter`` stamps of the unit's cold part,
    #: the part a user waits for
    cold: Tuple[float, float]
    #: ``(start, end)`` of every request the unit made
    requests: List[Tuple[float, float]]
    #: operations (cells or requests) attempted and failed in the unit
    attempted: int
    failed: int
    #: what the unit produced; compared with the pin or the first unit
    product: Dict[str, Any]
    #: counters read from the program's public results
    observed: Dict[str, float] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _cell_fields(cell) -> Dict[str, Any]:
    """The fields ``Cell.same_result`` compares (everything but wall time)."""
    fields = cell.to_dict()
    fields.pop("wall_seconds")
    return fields


class Workload:
    """Interface of a benchmark workload."""

    name = "?"
    #: worker processes the workload's pool uses (for pool efficiency)
    jobs = 1
    #: whether a unit leaves state (filled caches) that later units reuse,
    #: so that one untimed unit runs first
    warmup = True
    #: whether a unit is the workload's one request, so that
    #: ``request_p50_ms`` repeats ``wall_s`` and ``compare`` leaves it out
    unit_is_request = False

    def unit(self) -> Unit:
        raise NotImplementedError

    def calculators(self) -> List[Tuple[str, int, int]]:
        """``(technique, n, p)`` of the chunk calculators the workload uses."""
        raise NotImplementedError

    def mismatches(self, product: Dict[str, Any], reference: Dict[str, Any]) -> int:
        """Operations whose product differs from the reference."""
        return sum(product.get(key) != value for key, value in reference.items())

    def close(self) -> None:
        """Release what set-up acquired."""


class CohortCell(Workload):
    """One deterministic SS+GSS mpi+mpi cell at 10 048 ranks, cohort engine.

    Eligible for the cohort engine, so its deferred poll realisation does
    almost all the work and the scalar event loop is never entered.
    """

    name = "cohort-10k"
    unit_is_request = True

    def __init__(self, seed: int, small: bool = False):
        from repro.cluster.machine import homogeneous
        from repro.cluster.noise import NO_NOISE
        from repro.workloads import uniform_workload

        nodes, ppn, n = (4, 16, 2000) if small else (157, 64, 20000)
        self.workload = uniform_workload(n, low=5e-5, high=2e-3, seed=seed)
        self.cluster = homogeneous(nodes, ppn)
        self.noise = NO_NOISE

    def unit(self) -> Unit:
        from repro.api import run_hierarchical
        from repro.sim.engine import Simulator

        # A silent fallback to the scalar engine would still give the
        # right answer; entering the scalar event loop is what shows it.
        scalar_loops = []
        scalar_run = Simulator.run

        def counted_run(sim, *args, **kwargs):
            scalar_loops.append(sim)
            return scalar_run(sim, *args, **kwargs)

        Simulator.run = counted_run
        try:
            start = time.perf_counter()
            result = run_hierarchical(
                self.workload, self.cluster, inter="SS", intra="GSS", seed=0,
                noise=self.noise, collect_chunks=False, engine="cohort",
            )
            span = (start, time.perf_counter())
        finally:
            Simulator.run = scalar_run
        product = {
            "cell": [
                result.parallel_time.hex(),
                result.n_events,
                result.counters["lock_acquisitions"],
                lock_polls(result.counters),
            ]
        }
        return Unit(span, [span], 1, int(bool(scalar_loops)), product)

    def calculators(self) -> List[Tuple[str, int, int]]:
        n, nodes = self.workload.n, self.cluster.n_nodes
        return [("SS", n, nodes), ("GSS", n, self.cluster.nodes[0].cores)]


#: (label, approach, technique stack, run_hierarchical keywords)
MIX_CELLS: Tuple[Tuple[str, str, str, Dict[str, Any]], ...] = (
    ("mpi+mpi GSS+SS", "mpi+mpi", "GSS+SS", {}),
    ("mpi+mpi GSS+STATIC", "mpi+mpi", "GSS+STATIC", {}),
    ("mpi+mpi FAC2+GSS", "mpi+mpi", "FAC2+GSS", {}),
    ("mpi+mpi GSS+FAC2+SS", "mpi+mpi", "GSS+FAC2+SS", {}),
    ("mpi+mpi GSS+FAC2+FAC2+SS", "mpi+mpi", "GSS+FAC2+FAC2+SS", {}),
    ("mpi+mpi AWF-B+ADAPT", "mpi+mpi", "AWF-B+ADAPT", {}),
    ("mpi+mpi FAC2+SS faults", "mpi+mpi", "FAC2+SS",
     {"faults": "crash:5@0.002,slow:2@0.001:0.5"}),
    ("mpi+mpi GSS+FAC2+SS optimized", "mpi+mpi", "GSS+FAC2+SS",
     {"placement": "optimized", "costs": "calibrated"}),
    ("mpi+openmp GSS+STATIC", "mpi+openmp", "GSS+STATIC", {}),
    ("mpi+openmp GSS+SS", "mpi+openmp", "GSS+SS", {}),
    ("mpi+openmp GSS+GSS+SS", "mpi+openmp", "GSS+GSS+SS", {}),
    ("mpi+openmp GSS+GSS+GSS+SS", "mpi+openmp", "GSS+GSS+GSS+SS", {}),
    ("dcc SS+SS", "dcc", "SS+SS", {}),
    ("dcc GSS+FAC2+FAC2+SS", "dcc", "GSS+FAC2+FAC2+SS", {}),
    ("master-worker GSS", "master-worker", "GSS", {}),
    ("flat-mpi FAC2", "flat-mpi", "FAC2", {}),
)


class ModelMix(Workload):
    """A pass of 16 fixed scalar-engine cells across every execution model.

    Default mild noise makes every cell cohort-ineligible, so the scalar
    engine, ``smpi`` shared-memory/RMA, ``somp`` and each model's
    executor at depths 1-4 do the work.  The first pass also fills the
    chunk-sequence memo and imports the models, yet measured no slower
    than the two after it (7.48 s against 7.66 and 7.62 s at seed 3), so
    no pass runs untimed.
    """

    name = "model-mix"
    unit_is_request = True
    warmup = False

    def __init__(self, seed: int, small: bool = False):
        from repro.cluster.costs import COST_PRESETS
        from repro.cluster.machine import minihpc
        from repro.experiments.workloads import figure_workload

        self.seed = seed
        self.workload = figure_workload("mandelbrot", "tiny" if small else "default")
        self.cluster = minihpc(2 if small else 4, 8 if small else 16,
                               sockets_per_node=2, numa_per_socket=2)
        self.cells = [
            (label, approach, stack,
             {**kwargs, "costs": COST_PRESETS[kwargs["costs"]]} if "costs" in kwargs else kwargs)
            for label, approach, stack, kwargs in MIX_CELLS
        ]

    def unit(self) -> Unit:
        from repro.api import run_hierarchical

        product = {}
        start = time.perf_counter()
        for label, approach, stack, kwargs in self.cells:
            result = run_hierarchical(
                self.workload, self.cluster, inter=stack, approach=approach,
                seed=self.seed, **kwargs,
            )
            product[label] = [result.parallel_time.hex(), result.n_events]
        span = (start, time.perf_counter())
        # the request is the whole pass: a median over single cells would
        # sit on the boundary between two cell types and jump between them
        return Unit(span, [span], len(self.cells), 0, product)

    def calculators(self) -> List[Tuple[str, int, int]]:
        from repro.core.hierarchy import split_stack

        n, nodes, ppn = self.workload.n, self.cluster.n_nodes, self.cluster.nodes[0].cores
        return sorted({
            (technique, n, nodes if level == 0 else ppn)
            for _label, _approach, stack, _kwargs in self.cells
            for level, technique in enumerate(split_stack(stack))
        })


#: the paper's Figures 4-7, both applications
FIGURE_IDS = ("fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b")


class FigureSweep(Workload):
    """All eight figures on a 2-process pool: one cold sweep, then warm ones.

    The cold sweep simulates and ``put``s every cell into a fresh cache
    directory; the warm sweeps only ``get``.  Thirty warm sweeps are
    timed per unit, so that their median stays with the host's usual
    speed when a spell of heavy contention hits a few of them.  Every
    unit starts from cleared caches, so there is nothing to warm up.
    """

    name = "figure-sweep"
    jobs = 2
    warmup = False
    warm_sweeps = 30

    def __init__(self, seed: int, small: bool = False):
        from repro.experiments.workloads import figure_workload

        self.seed = seed
        self.scale = "tiny" if small else "quick"
        self.figures = FIGURE_IDS[:1] if small else FIGURE_IDS
        self.node_counts = (2,) if small else None
        self.warm_sweeps = 2 if small else self.warm_sweeps
        # units rebuild these after clearing the caches; set-up pays once
        for app in ("mandelbrot", "psia"):
            figure_workload(app, self.scale)

    def _sweep(self, cache_dir: str):
        from repro.experiments.figures import run_figure

        return [
            cell
            for figure in self.figures
            for cell in run_figure(
                figure, scale=self.scale, seed=self.seed, jobs=self.jobs,
                cache_dir=cache_dir, node_counts=self.node_counts,
            ).cells
        ]

    def unit(self) -> Unit:
        from repro.core.technique_base import clear_sequence_cache
        from repro.experiments.workloads import clear_cache

        os.makedirs(OUT_DIR, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="figure-sweep-", dir=OUT_DIR)
        try:
            clear_cache()
            clear_sequence_cache()
            start = time.perf_counter()
            cold = self._sweep(cache_dir)
            span = (start, time.perf_counter())
            requests, differing = [], 0
            for _ in range(self.warm_sweeps):
                sweep_start = time.perf_counter()
                warm = self._sweep(cache_dir)
                requests.append((sweep_start, time.perf_counter()))
                differing += sum(not a.same_result(b) for a, b in zip(cold, warm))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.cold_cells = len(cold)
        product = {"cells": _digest([_cell_fields(cell) for cell in cold])}
        attempted = len(cold) * (1 + self.warm_sweeps)
        return Unit(span, requests, attempted, differing, product)

    def mismatches(self, product: Dict[str, Any], reference: Dict[str, Any]) -> int:
        # one digest covers every cold cell of the sweep
        return self.cold_cells if product != reference else 0

    def calculators(self) -> List[Tuple[str, int, int]]:
        from repro.experiments.figures import FIGURES
        from repro.experiments.workloads import figure_workload

        out = set()
        for figure in self.figures:
            spec = FIGURES[figure]
            n = figure_workload(spec.app, self.scale).n
            for nodes in self.node_counts or spec.node_counts:
                out.add((spec.inter, n, nodes))
                for intra in spec.intras:
                    out.add((intra, n, spec.ppn))
        return sorted(out)


#: intra-node techniques the service requests draw from; SS is left out
#: because its cells cost ~40x the others, so the cold phase would time
#: how its few cells happen to land on the two workers
SERVICE_POOL = (
    "STATIC", "WF", "GSS", "TSS", "FAC2", "mFSC",
    "TFSS", "FISS", "VISS", "RND", "AWF-B", "AF",
)
SERVICE_SEEDS = (0, 1, 2)
SERVICE_NODES = (2, 4)


def service_requests(seed: int, pool: Sequence[str] = SERVICE_POOL) -> List[List[Any]]:
    """12 ``[intras, request seed]`` pairs covering every (intra, seed) pair.

    For each request seed the pool is shuffled and split into three
    requests of four, so the union is always the whole space; three more
    random requests overlap it.  The cold phase therefore simulates the
    same number of unique cells at every workload seed.
    """
    rng = random.Random(seed)
    requests = []
    for request_seed in SERVICE_SEEDS:
        shuffled = list(pool)
        rng.shuffle(shuffled)
        requests += [[shuffled[i:i + 4], request_seed] for i in range(0, len(shuffled), 4)]
    requests += [[rng.sample(pool, 4), rng.choice(SERVICE_SEEDS)] for _ in range(3)]
    rng.shuffle(requests)
    return requests


class _Client(threading.Thread):
    """One closed-loop client: posts its sweeps one after another."""

    def __init__(self, base_url: str, payloads: List[Dict[str, Any]], barrier):
        super().__init__(daemon=True)
        self.base_url = base_url
        self.payloads = payloads
        self.barrier = barrier
        self.requests: List[Tuple[float, float]] = []
        self.failed = 0
        #: cell key -> same_result fields of every streamed cell
        self.cells: Dict[str, Any] = {}
        self.conflicts = 0
        self.uncached = 0

    def run(self) -> None:
        self.barrier.wait()
        for payload in self.payloads:
            start = time.perf_counter()
            try:
                lines = self._post(payload)
            except (OSError, ValueError):
                self.failed += 1
                continue
            self.requests.append((start, time.perf_counter()))
            trailer = lines.pop() if lines else {}
            if not trailer.get("done") or trailer.get("errors"):
                self.failed += 1
                continue
            self.uncached += trailer["cells"] - trailer["sources"]["cache"]
            for line in lines:
                fields = dict(line["cell"])
                fields.pop("wall_seconds")
                if self.cells.setdefault(line["key"], fields) != fields:
                    self.conflicts += 1

    def _post(self, payload: Dict[str, Any]) -> List[Dict[str, Any]]:
        request = urllib.request.Request(
            f"{self.base_url}/sweep",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            return [json.loads(line) for line in response]


class Service(Workload):
    """Two concurrent clients against the sweep server, cold then warm.

    Cold: both clients post the same 12 requests against an empty cache,
    so the in-flight registry must collapse their duplicates.  Warm: each
    client posts 100 requests that the cache answers.  A fresh server
    (and cache) serves every unit, so there is nothing to warm up;
    set-up starts the first one.
    """

    name = "service"
    jobs = 2
    warmup = False
    clients = 2
    warm_requests = 100

    def __init__(self, seed: int, small: bool = False):
        from repro.experiments.workloads import figure_workload

        self.rng = random.Random(seed)
        self.scale = "tiny" if small else "quick"
        pool = SERVICE_POOL[:4] if small else SERVICE_POOL
        requests = service_requests(seed, pool)[: 3 if small else None]
        self.warm_requests = 5 if small else self.warm_requests
        self.payloads = [
            {
                "workload": {"app": "mandelbrot", "scale": self.scale},
                "cluster": {"ppn": 4},
                "inter": "GSS",
                "intras": intras,
                "approaches": ["mpi+mpi"],
                "node_counts": list(SERVICE_NODES),
                "seed": request_seed,
            }
            for intras, request_seed in requests
        ]
        self.unique_cells = len({
            (intra, request_seed) for intras, request_seed in requests for intra in intras
        }) * len(SERVICE_NODES)
        # workers fork from this process and inherit the built workload
        figure_workload("mandelbrot", self.scale)
        self._server = self._start()

    def _start(self):
        from repro.service import create_server

        os.makedirs(OUT_DIR, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="service-", dir=OUT_DIR)
        server = create_server(port=0, jobs=self.jobs, cache_dir=cache_dir, quiet=True)
        # a short poll interval only shortens shutdown, not request handling
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        return server, thread, cache_dir

    @staticmethod
    def _stop(started) -> None:
        server, thread, cache_dir = started
        server.shutdown()
        server.server_close()
        server.executor.shutdown()
        thread.join()
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _phase(self, base_url: str, per_client: List[List[Dict[str, Any]]]):
        barrier = threading.Barrier(len(per_client) + 1)
        clients = [_Client(base_url, payloads, barrier) for payloads in per_client]
        for client in clients:
            client.start()
        barrier.wait()
        start = time.perf_counter()
        for client in clients:
            # the host speed sampler's signal handler runs only in this
            # thread, so it must not block for a whole phase
            while client.is_alive():
                client.join(0.005)
        return clients, (start, time.perf_counter())

    def unit(self) -> Unit:
        started, self._server = self._server or self._start(), None
        try:
            server = started[0]
            host, port = server.server_address[:2]
            base_url = f"http://{host}:{port}"
            cold, span = self._phase(base_url, [self.payloads] * self.clients)
            warm, _ = self._phase(base_url, [
                [self.rng.choice(self.payloads) for _ in range(self.warm_requests)]
                for _ in range(self.clients)
            ])
            with urllib.request.urlopen(f"{base_url}/metrics", timeout=30) as response:
                metrics = json.loads(response.read())
        finally:
            self._stop(started)
        cells: Dict[str, Any] = {}
        conflicts = sum(client.conflicts for client in cold + warm)
        for client in cold + warm:
            for key, fields in client.cells.items():
                conflicts += cells.setdefault(key, fields) != fields
        failed = sum(client.failed for client in cold + warm)
        failed += sum(client.uncached for client in warm)
        failed += conflicts
        failed += abs(metrics["simulated"] - self.unique_cells) + metrics["errors"]
        return Unit(
            span,
            [request for client in warm for request in client.requests],
            sum(len(client.payloads) for client in cold + warm),
            failed,
            {"cells": _digest(sorted(cells.items()))},
            observed={key: metrics[key] for key in ("simulated", "dedup_hits", "cache_hits")},
        )

    def mismatches(self, product: Dict[str, Any], reference: Dict[str, Any]) -> int:
        return self.unique_cells if product != reference else 0

    def calculators(self) -> List[Tuple[str, int, int]]:
        from repro.experiments.workloads import figure_workload

        n = figure_workload("mandelbrot", self.scale).n
        out = {("GSS", n, nodes) for nodes in SERVICE_NODES}
        out |= {(intra, n, 4) for payload in self.payloads for intra in payload["intras"]}
        return sorted(out)

    def close(self) -> None:
        if self._server is not None:
            self._stop(self._server)
            self._server = None


WORKLOADS = {cls.name: cls for cls in (CohortCell, ModelMix, FigureSweep, Service)}


def materialise_seconds(workload: Workload, repeats: int = 5) -> float:
    """Median seconds to materialise the workload's calculators cold.

    Adaptive and PE-dependent calculators have no serial sequence and
    techniques that need a profile cannot be built bare; both are
    skipped.
    """
    from repro.core.technique_base import TechniqueError, clear_sequence_cache
    from repro.core.techniques import get_technique

    calculators = []
    for technique, n, p in workload.calculators():
        try:
            calc = get_technique(technique).make(n, p)
        except TechniqueError:
            continue
        if calc.deterministic:
            calculators.append((technique, n, p))
    times = []
    for _ in range(repeats):
        clear_sequence_cache()
        start = time.perf_counter()
        for technique, n, p in calculators:
            get_technique(technique).make(n, p).total_steps()
        times.append(time.perf_counter() - start)
    clear_sequence_cache()
    return statistics.median(times)
