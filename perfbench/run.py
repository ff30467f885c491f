"""The benchmark runner: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py                      # every workload once
    python3 perfbench/run.py --runs 10 --out perfbench/results/seed-a.json
    python3 perfbench/run.py --trace 1            # plus a traced run each
    python3 perfbench/run.py --workload cohort-10k --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py compare A.json B.json
    python3 perfbench/run.py --pin                # regenerate pins.json

With ``--workload`` one run happens in this process: it prints every
metric as ``workload metric value unit`` and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (and writes its Chrome trace and
per-layer table under ``perfbench/out/``).  Without ``--workload`` every
workload runs ``--runs`` times, each run in its own process with seeds
``--seed``, ``--seed + 1``, ...; ``--trace 1`` adds one traced run per
workload and reports the tracing overhead, and the exit status is
non-zero when any output check fails (a single ``--workload`` run
reports that as ``"correct": false`` and exits 0).

Every run samples the host's speed in each of its processes, and the
times it reports are scaled to a fixed reference speed
(``bench_host``), because the machine's shared processors slow it by
up to 2.5x for minutes at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from bench_host import HostSpeed, Sampler, read_samples
from bench_stats import summarise, verdict
from bench_tracing import Tracer, layer_metrics
from bench_workloads import OUT_DIR, WORKLOADS, materialise_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pins.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: child processes that each repeat the set-up; ``setup_s`` is their median
SETUP_PROBES = 5
DEFAULT_SEED = 3
DEFAULT_SECONDS = 24
PIN_SEEDS = (3, 4)

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit (see bench_tracing.layer_metrics)
PER_LAYER = {
    "sim.cohorts.calls": "count",
    "sim.cohorts.execute_s": "s",
    "sim.cohorts.macros": "count",
    "sim.cohorts.macros_per_s": "1/s",
    "sim.cohorts.polls_per_s": "1/s",
    "smpi.world_build_s": "s",
    "smpi.lock_polls": "count",
    "smpi.lock_acquisitions": "count",
    "smpi.atomics": "count",
    "sim.engine.calls": "count",
    "sim.engine.run_s": "s",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "models.run_s": "s",
    "models.self_s": "s",
    "models.finish_s": "s",
    "core.materialise_s": "s",
    "core.chunks": "count",
    "experiments.fingerprint_s": "s",
    "experiments.cell_key_s": "s",
    "experiments.cache_get_s": "s",
    "experiments.cache_put_s": "s",
    "experiments.run_cells_s": "s",
    "experiments.cell_sim_s": "s",
    "experiments.pool_efficiency": "ratio",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "service.spec_s": "s",
    "service.resolve_s": "s",
    "service.simulated": "count",
    "service.dedup_hits": "count",
    "service.cache_hits": "count",
    "service.dedup_ratio": "ratio",
    "workloads.build_s": "s",
    "trace.wall_s": "s",
    "host.speed": "ratio",
}


def _import_program() -> None:
    """Make ``repro`` importable from ``src/`` (forked workers inherit it)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program to measure ({SRC}/repro is missing)")
    sys.path.insert(0, SRC)


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (Linux KiB).

    Read before the set-up probes start, so the children are the
    workload's own load processes (pool workers) only.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(name: str, seed: int, host_dir: str) -> Tuple[float, float]:
    """``(start, ready)`` stamps of a fresh process setting up the workload.

    The probe samples the host's speed into ``host_dir`` as it goes.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", name, "--seed", str(seed), "--host-dir", host_dir],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe of {name} failed (exit {code})")
    return start, ready


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    small: bool = False,
) -> Dict[str, Any]:
    """One run of one workload in this process; returns the result object.

    Set-up, one untimed warm-up unit (for workloads that have warm
    state), then timed units until the next one would overrun
    ``seconds`` (at least one).  Every unit's product, the warm-up's
    included, is checked against the pin of ``seed`` or, for unpinned
    seeds and ``small`` inputs, against the first unit's.  The host's
    speed is sampled throughout, set-up probes included, and every
    reported time is scaled to the reference speed (see ``bench_host``).
    """
    host_dir = os.path.join(OUT_DIR, f"host-{os.getpid()}")
    tracer = Tracer(name) if trace else None
    try:
        with tracer or nullcontext(), Sampler(host_dir):
            start = time.perf_counter()
            workload = WORKLOADS[name](seed, small=small)
            setups = [(start, time.perf_counter())]
            try:
                if tracer:
                    tracer.unit = "warmup"
                warmups = [workload.unit()] if workload.warmup else []
                units, durations = [], []
                measure_start = time.perf_counter()
                while True:
                    if tracer:
                        tracer.unit = str(len(units))
                    unit_start = time.perf_counter()
                    units.append(workload.unit())
                    durations.append(time.perf_counter() - unit_start)
                    elapsed = time.perf_counter() - measure_start
                    if elapsed + statistics.median(durations) > seconds:
                        break
            finally:
                workload.close()
        peak_rss_mb = _peak_rss_mb()
        if not (trace or small):
            setups = [probe_setup(name, seed, host_dir) for _ in range(SETUP_PROBES)]
        host = HostSpeed(read_samples(host_dir))
    finally:
        shutil.rmtree(host_dir, ignore_errors=True)

    checked = warmups + units
    pins = {} if small else _load_json(PINS_PATH)
    reference = pins.get(name, {}).get(str(seed)) or checked[0].product
    failed = sum(u.failed + workload.mismatches(u.product, reference) for u in checked)
    attempted = sum(u.attempted for u in checked)
    wall_s = statistics.median(host.scale(*u.cold) for u in units)

    if trace:
        values = layer_metrics(
            tracer,
            [str(index) for index in range(len(units))],
            [u.observed for u in units],
            workload.jobs,
            materialise_seconds(workload),
        )
        values["trace.wall_s"] = wall_s
        values["host.speed"] = statistics.median(host.speed(*u.cold) for u in units)
        tracer.write(OUT_DIR, f"{name}-seed{seed}")
        declared = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(host.scale(*span) for span in setups),
            "wall_s": wall_s,
            "request_p50_ms": statistics.median(
                host.scale(*request) for u in units for request in u.requests
            ) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in declared.items()},
    }


#: what ``run_all`` records for a run that crashed or printed no result:
#: the run counts as one attempted operation that failed, and has no metrics
CRASHED = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args) -> int:
    """Every workload ``--runs`` times, each run in a child process.

    The workloads take turns, so a slow spell of the machine touches a
    few runs of every workload rather than many runs of one.
    """
    plan = [(name, args.seed + r, 0) for r in range(args.runs) for name in WORKLOADS]
    if args.trace:
        plan += [(name, args.seed, 1) for name in WORKLOADS]
    runs = []
    for name, seed, trace in plan:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
        except ValueError:
            result = None
        if result is None:
            print(f"{name} seed {seed}: run failed (exit {child.returncode})", file=sys.stderr)
            result = CRASHED
        else:
            print("\n".join(lines[:-1]), flush=True)
        runs.append({"workload": name, "seed": seed, "trace": bool(trace), **result})
    if args.trace:
        for name in WORKLOADS:
            traced = [r["metrics"]["trace.wall_s"]["value"] for r in runs
                      if r["workload"] == name and "trace.wall_s" in r["metrics"]]
            plain = [r["metrics"]["wall_s"]["value"] for r in runs
                     if r["workload"] == name and "wall_s" in r["metrics"]]
            if traced and plain:
                overhead = traced[0] - statistics.median(plain)
                print(f"{name} trace_overhead_wall_s {overhead!r} s")
    if args.out:
        payload = {
            "schema": 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "seconds": args.seconds,
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (workload, metric) of two result files.

    Metrics with a bound in ``BENCHMARK.json`` get a verdict; per-layer
    metrics are shown for information.  A metric or workload that only
    one side has is worse: a crashed run leaves its metrics out.
    ``failed_fraction`` (failed ÷ attempted operations) is worse on any
    increase.  ``request_p50_ms`` of a workload whose unit is its one
    request repeats ``wall_s`` and is left out.  Returns 1 when any row
    is worse.
    """

    bounds = {m["name"]: m for m in _load_json(BENCHMARK_PATH)["end_to_end"]}
    sides = [_load_json(path_a)["runs"], _load_json(path_b)["runs"]]
    rows: List[List[str]] = []
    names = list(dict.fromkeys(run["workload"] for side in sides for run in side))
    for name in names:
        per_side = [[run for run in side if run["workload"] == name] for side in sides]
        metrics = list(dict.fromkeys(m for side in per_side for run in side for m in run["metrics"]))
        if getattr(WORKLOADS.get(name), "unit_is_request", False):
            metrics = [m for m in metrics if m != "request_p50_ms"]
        for metric in metrics:
            values = [[run["metrics"][metric]["value"] for run in side if metric in run["metrics"]]
                      for side in per_side]
            if not all(values):
                cells = [_fmt(summarise(v)) if v else "missing" for v in values]
                rows.append([name, metric, *cells, "", "worse"])
                continue
            a, b = summarise(values[0]), summarise(values[1])
            if metric in bounds:
                decided = verdict(values[0], values[1], bounds[metric]["bound"],
                                  bounds[metric]["better"])
            else:
                decided = "info"
            change = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
            rows.append([name, metric, _fmt(a), _fmt(b), f"{change:+.1%}", decided])
        if not all(per_side):
            cells = ["missing" if not side else "" for side in per_side]
            rows.append([name, "failed_fraction", *cells, "", "worse"])
            continue
        fractions = [
            sum(run["failed"] for run in side) / max(1, sum(run["attempted"] for run in side))
            for side in per_side
        ]
        decided = ("worse" if fractions[1] > fractions[0]
                   else "better" if fractions[1] < fractions[0] else "unchanged")
        rows.append([name, "failed_fraction", f"{fractions[0]:.4g}", f"{fractions[1]:.4g}", "", decided])
    header = ["workload", "metric", f"A: {os.path.basename(path_a)}",
              f"B: {os.path.basename(path_b)}", "change", "verdict"]
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def _fmt(summary: Dict[str, float]) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}] "
            f"n={summary['n']}")


def pin() -> int:
    """Regenerate ``pins.json`` from one unit per workload and pinned seed."""

    pins: Dict[str, Dict[str, Any]] = {}
    for name, cls in WORKLOADS.items():
        for seed in PIN_SEEDS:
            workload = cls(seed)
            try:
                unit = workload.unit()
            finally:
                workload.close()
            if unit.failed:
                print(f"{name} seed {seed}: {unit.failed} failed operation(s)", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = unit.product
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this workload once, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", help="write the all-workload results to this JSON file")
    parser.add_argument("--pin", action="store_true", help="regenerate pins.json")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--host-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    if args.pin:
        return pin()
    if args.probe_setup:
        with Sampler(args.host_dir):
            workload = WORKLOADS[args.workload](args.seed)
            print("ready", flush=True)
            workload.close()
        return 0
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
