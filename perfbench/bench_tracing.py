"""Spans around calls into the layers of ``repro``, recorded from outside.

The traced run installs timing wrappers around public functions and
methods of the program (nothing under ``src/`` changes), keeps every
span in memory -- name, start, end, parent span, workload, unit -- and
at the end turns them into the per-layer metrics, a Chrome trace and a
per-layer table with self time.

Only the benchmark process records: a pool worker forked after the
wrappers went in runs them as pass-throughs, so simulation time spent
in workers shows up only as ``Cell.wall_seconds``
(``experiments.cell_sim_s``).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    unit: str
    thread: int
    counts: Optional[Dict[str, float]]

    @property
    def duration(self) -> float:
        return self.end - self.start


def lock_polls(counters: Dict[str, Any]) -> int:
    """Lock attempts over every shared window of a run (0 without locks)."""
    return sum(stats["attempts"] for stats in (counters.get("lock_stats") or {}).values())


def _model_run_counts(args, kwargs, result, state) -> Dict[str, float]:
    counters = result.counters
    return {
        "lock_polls": lock_polls(counters),
        "lock_acquisitions": counters.get("lock_acquisitions", 0),
        "atomics": counters.get("global_atomics", 0),
        "chunks": sum(worker.n_chunks for worker in result.metrics.workers),
    }


def _engine_before(args, kwargs):
    return args[0].n_events_processed


def _engine_counts(args, kwargs, result, before) -> Dict[str, float]:
    return {"events": args[0].n_events_processed - before}


def _cohort_before(args, kwargs):
    return args[1].sim.n_events_processed


def _cohort_counts(args, kwargs, result, before) -> Dict[str, float]:
    run = args[1]
    return {
        "macros": run.sim.n_events_processed - before,
        "polls": lock_polls(run.counters),
    }


def _run_cells_counts(args, kwargs, result, state) -> Dict[str, float]:
    return {"cells": len(result), "cell_wall_s": sum(c.wall_seconds for c in result)}


def _cache_get_counts(args, kwargs, result, state) -> Dict[str, float]:
    return {"hits": int(result is not None), "misses": int(result is None)}


def _targets() -> List[Tuple[str, Any, str, Optional[Callable], Optional[Callable]]]:
    """(span name, owner, attribute, before hook, after hook) per wrapper.

    Module-level functions are patched on the module their callers look
    them up in at call time: ``repro.models.base`` binds
    ``compute_metrics``/``verify_schedule`` at import, the other call
    sites import lazily from the defining module.
    """
    import repro.experiments.parallel as parallel
    import repro.experiments.workloads as figure_workloads
    import repro.models.base as models_base
    import repro.sim.cohorts as cohorts
    import repro.workloads as workloads
    from repro.service.jobs import CellExecutor
    from repro.service.spec import SweepSpec
    from repro.sim.engine import Simulator
    from repro.smpi.world import MpiWorld

    return [
        ("models.run", models_base.ExecutionModel, "run", None, _model_run_counts),
        ("models.finish", models_base, "compute_metrics", None, None),
        ("models.finish", models_base, "verify_schedule", None, None),
        ("smpi.world_build", MpiWorld, "__init__", None, None),
        ("sim.engine.run", Simulator, "run", _engine_before, _engine_counts),
        ("sim.cohorts.execute", cohorts, "execute_cohort", _cohort_before, _cohort_counts),
        ("experiments.fingerprint", parallel, "workload_fingerprint", None, None),
        ("experiments.cell_key", parallel, "cell_key", None, None),
        ("experiments.cache_get", parallel.CellCache, "get", None, _cache_get_counts),
        ("experiments.cache_put", parallel.CellCache, "put", None, None),
        ("experiments.run_cells", parallel, "run_cells", None, _run_cells_counts),
        ("service.spec", SweepSpec, "from_json", None, None),
        ("service.resolve", CellExecutor, "resolve", None, None),
        ("workloads.build", workloads, "uniform_workload", None, None),
        ("workloads.build", figure_workloads, "mandelbrot_workload", None, None),
        ("workloads.build", figure_workloads, "psia_workload", None, None),
    ]


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers.

    ``unit`` labels the spans recorded from now on (``"setup"``,
    ``"warmup"`` or the timed unit's index); the runner advances it.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.unit = "setup"
        self.spans: List[Span] = []
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._restore: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for name, owner, attr, before, after in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, before, after))
            else:
                wrapped = self._wrap(original, name, before, after)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            state = before(args, kwargs) if before else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = after(args, kwargs, result, state) if after else None
            tracer.spans.append(
                Span(span_id, name, start, end, parent, tracer.unit,
                     threading.get_ident(), counts)
            )
            return result

        return wrapper

    # -- reductions --------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {span.id: span.duration - covered.get(span.id, 0.0) for span in self.spans}

    def per_unit(self, units: List[str]) -> List[Dict[str, float]]:
        """Per timed unit: summed seconds, self seconds and counts by span name."""
        self_time = self.self_times()
        tables: Dict[str, Dict[str, float]] = {unit: {} for unit in units}
        for span in self.spans:
            table = tables.get(span.unit)
            if table is None:
                continue
            table[span.name + ".s"] = table.get(span.name + ".s", 0.0) + span.duration
            table[span.name + ".self_s"] = (
                table.get(span.name + ".self_s", 0.0) + self_time[span.id]
            )
            table[span.name + ".calls"] = table.get(span.name + ".calls", 0) + 1
            for key, value in (span.counts or {}).items():
                table[f"{span.name}.{key}"] = table.get(f"{span.name}.{key}", 0) + value
        return [tables[unit] for unit in units]

    # -- outputs -----------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
        events = [
            {
                "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (span.start - self.epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": span.thread,
                "args": {
                    "workload": self.workload,
                    "unit": span.unit,
                    "span": span.id,
                    "parent": span.parent,
                    **(span.counts or {}),
                },
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def layer_table(self) -> str:
        """Calls, total and self seconds per span name over the whole run."""
        self_time = self.self_times()
        rows: Dict[str, List[float]] = {}
        for span in self.spans:
            row = rows.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += self_time[span.id]
        lines = [f"{'span':<26} {'calls':>8} {'total_s':>11} {'self_s':>11}"]
        for name in sorted(rows):
            calls, total, own = rows[name]
            lines.append(f"{name:<26} {calls:>8d} {total:>11.4f} {own:>11.4f}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str, stem: str) -> None:
        """Write ``<stem>.trace.json`` and ``<stem>.layers.txt`` to ``out_dir``."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{stem}.trace.json"), "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)
        with open(os.path.join(out_dir, f"{stem}.layers.txt"), "w", encoding="utf-8") as fh:
            fh.write(self.layer_table())


def layer_metrics(
    tracer: Tracer,
    units: List[str],
    observed: List[Dict[str, float]],
    jobs: int,
    materialise_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    Every value is the median over timed units of that unit's total, so
    it does not depend on how many units fit in the run.  ``observed``
    holds per unit what the workload read from public results (the
    service's ``GET /metrics``); ``materialise_s`` is measured apart
    from the units.  ``workloads.build_s`` is set-up time, spent once.
    """
    tables = tracer.per_unit(units)

    def med(key: str) -> float:
        return median(table.get(key, 0.0) for table in tables)

    def ratio(numerator: str, denominator: str, scale: float = 1.0) -> float:
        return median(
            table.get(numerator, 0.0) / (scale * table[denominator])
            if table.get(denominator) else 0.0
            for table in tables
        )

    def obs(key: str) -> float:
        return median(unit.get(key, 0.0) for unit in observed)

    def dedup_ratio(unit: Dict[str, float]) -> float:
        requested = unit.get("simulated", 0) + unit.get("dedup_hits", 0) + unit.get("cache_hits", 0)
        return (requested - unit.get("simulated", 0)) / requested if requested else 0.0

    return {
        "sim.cohorts.calls": med("sim.cohorts.execute.calls"),
        "sim.cohorts.execute_s": med("sim.cohorts.execute.s"),
        "sim.cohorts.macros": med("sim.cohorts.execute.macros"),
        "sim.cohorts.macros_per_s": ratio("sim.cohorts.execute.macros", "sim.cohorts.execute.s"),
        "sim.cohorts.polls_per_s": ratio("sim.cohorts.execute.polls", "sim.cohorts.execute.s"),
        "smpi.world_build_s": med("smpi.world_build.s"),
        "smpi.lock_polls": med("models.run.lock_polls"),
        "smpi.lock_acquisitions": med("models.run.lock_acquisitions"),
        "smpi.atomics": med("models.run.atomics"),
        "sim.engine.calls": med("sim.engine.run.calls"),
        "sim.engine.run_s": med("sim.engine.run.s"),
        "sim.engine.events": med("sim.engine.run.events"),
        "sim.engine.events_per_s": ratio("sim.engine.run.events", "sim.engine.run.s"),
        "models.run_s": med("models.run.s"),
        "models.self_s": med("models.run.self_s"),
        "models.finish_s": med("models.finish.s"),
        "core.materialise_s": materialise_s,
        "core.chunks": med("models.run.chunks"),
        "experiments.fingerprint_s": med("experiments.fingerprint.s"),
        "experiments.cell_key_s": med("experiments.cell_key.s"),
        "experiments.cache_get_s": med("experiments.cache_get.s"),
        "experiments.cache_put_s": med("experiments.cache_put.s"),
        "experiments.run_cells_s": med("experiments.run_cells.s"),
        "experiments.cell_sim_s": med("experiments.run_cells.cell_wall_s"),
        "experiments.pool_efficiency": ratio(
            "experiments.run_cells.cell_wall_s", "experiments.run_cells.s", scale=jobs
        ),
        "experiments.cache_hits": med("experiments.cache_get.hits"),
        "experiments.cache_misses": med("experiments.cache_get.misses"),
        "service.spec_s": med("service.spec.s"),
        "service.resolve_s": med("service.resolve.s"),
        "service.simulated": obs("simulated"),
        "service.dedup_hits": obs("dedup_hits"),
        "service.cache_hits": obs("cache_hits"),
        "service.dedup_ratio": median(dedup_ratio(unit) for unit in observed),
        "workloads.build_s": sum(
            span.duration for span in tracer.spans
            if span.unit == "setup" and span.name == "workloads.build"
        ),
    }
