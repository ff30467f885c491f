"""Smoke test of the benchmark runner on small inputs.

Runs every workload once untraced and once traced, checks that each
emits exactly the metrics ``BENCHMARK.json`` declares with their units
and passes its output checks, and checks the ``compare`` verdicts on
synthetic samples.
"""

import argparse
import importlib.util
import json
import multiprocessing
import os
import subprocess
import time

import pytest

from bench_host import MIN_SAMPLES, REFERENCE_SECONDS, HostSpeed, Sampler, read_samples
from bench_stats import uncertainty, verdict

HERE = os.path.dirname(os.path.abspath(__file__))


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_runner()
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_declared_metrics_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_emits_every_metric(name):
    for trace, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        result = run.run_workload(name, 3, 0, trace=trace, small=True)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {key: entry["unit"] for key, entry in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared
        }
    values = {key: entry["value"] for key, entry in result["metrics"].items()}
    if name == "cohort-10k":
        assert values["sim.cohorts.calls"] == 1 and values["sim.engine.calls"] == 0
    else:
        assert values["sim.cohorts.calls"] == 0


def test_host_speed_scales_spans_to_the_reference_speed():
    # 0-1 s at the reference speed, 1-2 s at half of it, and one loop at
    # 2-3 s that was preempted (5x the median loop) and is left out
    samples = [(i / 100, REFERENCE_SECONDS) for i in range(100)]
    samples += [(1 + i / 100, 2 * REFERENCE_SECONDS) for i in range(100)]
    samples += [(2.5, 10 * REFERENCE_SECONDS)]
    host = HostSpeed(samples)
    assert host.scale(0.0, 0.99) == pytest.approx(0.99)
    assert host.scale(1.0, 1.99) == pytest.approx(0.495)
    assert host.speed(0.5, 1.495) == pytest.approx(0.75)
    # a span with too few samples takes the nearest ones: the preempted
    # loop is not among them
    assert host.speed(2.4, 2.6) == pytest.approx(0.5)
    assert len(host.stamps) == 200 and MIN_SAMPLES > 1


def _busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_samples_forked_children(tmp_path):
    with Sampler(str(tmp_path)):
        child = multiprocessing.get_context("fork").Process(target=_busy, args=(0.2,))
        child.start()
        _busy(0.1)
        child.join(30)
    assert child.exitcode == 0
    files = {path.name: path.stat().st_size for path in tmp_path.iterdir()}
    assert f"{child.pid}.bin" in files and f"{os.getpid()}.bin" in files
    assert all(size > 0 for size in files.values())
    stamps = [stamp for stamp, _ in read_samples(str(tmp_path))]
    assert stamps == sorted(stamps)


def test_uncertainty_widens_small_run_counts():
    assert [uncertainty(n) for n in (1, 4, 8, 9, 50)] == [7, 1.4, 1.2, 1, 1]
    with pytest.raises(ValueError):
        uncertainty(0)


def test_single_runs_need_a_seven_times_wider_change():
    assert verdict([1.0], [1.5], bound=0.1, better="lower") == "unchanged"
    assert verdict([1.0], [1.8], bound=0.1, better="lower") == "worse"
    steady = [1.0, 1.001, 0.999, 1.0, 1.002, 0.998, 1.0, 1.001, 0.999]
    assert verdict(steady, [v * 1.15 for v in steady], bound=0.1, better="lower") == "worse"
    assert verdict(steady, [v * 1.15 for v in steady], bound=0.1, better="higher") == "better"
    assert verdict(steady, [v * 1.05 for v in steady], bound=0.1, better="lower") == "unchanged"


def test_noisy_rows_are_unresolved_unless_separated():
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9]
    assert verdict(noisy, [1.1, 0.85, 1.25, 1.0, 0.95], bound=0.1, better="lower") == "unresolved"
    assert verdict(noisy, [v + 1.0 for v in noisy], bound=0.1, better="lower") == "worse"


def _runs(workload, wall, seeds=range(9)):
    return [
        {"workload": workload, "seed": seed, "trace": False, "correct": True,
         "attempted": 8, "failed": 0,
         "metrics": {"wall_s": {"value": wall * (1 + 0.001 * seed), "unit": "s"},
                     "request_p50_ms": {"value": wall * 1e3, "unit": "ms"}}}
        for seed in seeds
    ]


def _write(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def _rows(capsys):
    return [row.split() for row in capsys.readouterr().out.splitlines()[1:]]


def test_compare_reports_each_workload_metric(tmp_path, capsys):
    a = _write(tmp_path / "a.json", _runs("cohort-10k", 2.5) + _runs("service", 0.5))
    b = _write(tmp_path / "b.json", _runs("cohort-10k", 4.0) + _runs("service", 0.5))
    assert run.compare(a, a) == 0
    capsys.readouterr()
    assert run.compare(a, b) == 1
    verdicts = {(row[0], row[1]): row[-1] for row in _rows(capsys)}
    # a unit that is its workload's one request does not repeat wall_s
    assert verdicts == {
        ("cohort-10k", "wall_s"): "worse",
        ("cohort-10k", "failed_fraction"): "unchanged",
        ("service", "wall_s"): "unchanged",
        ("service", "request_p50_ms"): "unchanged",
        ("service", "failed_fraction"): "unchanged",
    }


def test_compare_counts_crashed_and_missing_runs_as_worse(tmp_path, capsys):
    a = _write(tmp_path / "a.json", _runs("cohort-10k", 2.5) + _runs("service", 0.5))
    crashed = [{"workload": "cohort-10k", "seed": 0, "trace": False, **run.CRASHED}]
    # B: one cohort-10k run crashed, the rest are fine; no service run at all
    b = _write(tmp_path / "b.json", crashed + _runs("cohort-10k", 2.5, range(1, 9)))
    assert run.compare(a, b) == 1
    verdicts = {(row[0], row[1]): row[-1] for row in _rows(capsys)}
    assert verdicts[("cohort-10k", "wall_s")] == "unchanged"
    assert verdicts[("cohort-10k", "failed_fraction")] == "worse"
    assert verdicts[("service", "wall_s")] == "worse"
    assert verdicts[("service", "failed_fraction")] == "worse"
    # every run of B crashed: its metrics are missing
    b = _write(tmp_path / "b.json", crashed)
    assert run.compare(a, b) == 1
    verdicts = {(row[0], row[1]): row[-1] for row in _rows(capsys)}
    assert verdicts[("cohort-10k", "wall_s")] == "worse"


def test_run_all_records_a_crashed_run(tmp_path, monkeypatch):
    def crash(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, stdout="Traceback ...\n")

    monkeypatch.setattr(run.subprocess, "run", crash)
    out = tmp_path / "crashed.json"
    args = argparse.Namespace(seed=3, runs=1, trace=0, seconds=1.0, out=str(out))
    assert run.run_all(args) == 1
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == list(run.WORKLOADS)
    assert all(r["failed"] == r["attempted"] == 1 and not r["metrics"] for r in runs)
