"""Tests for the parallel sweep + content-addressed cell cache.

The hard guarantees of :mod:`repro.experiments.parallel`:

* a ``jobs=N`` sweep returns results identical to the serial sweep,
  cell for cell (``wall_seconds`` excepted — it measures the host);
* a second sweep against the same ``cache_dir`` runs zero simulations
  yet returns equal cells;
* changing the seed or the workload invalidates the cache cleanly.
"""

import numpy as np
import pytest

from repro.experiments.figures import APPROACHES, run_figure
from repro.experiments.harness import Cell, GridRunner
from repro.experiments.parallel import CellCache, cell_key, workload_fingerprint
from repro.experiments.workloads import figure_workload
from repro.cluster.costs import CALIBRATED_COSTS
from repro.cluster.machine import minihpc
from repro.workloads.base import Workload


@pytest.fixture(scope="module")
def workload():
    return figure_workload("mandelbrot", "tiny")


def sweep(workload, jobs=1, cache_dir=None, seed=0, intras=("STATIC", "SS", "GSS")):
    runner = GridRunner(
        workload=workload,
        ppn=4,
        node_counts=(2, 4),
        seed=seed,
        jobs=jobs,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
    )
    cells = runner.sweep("GSS", intras, APPROACHES)
    return cells, runner.last_sweep_stats


# ---------------------------------------------------------------------------
# determinism: parallel == serial
# ---------------------------------------------------------------------------
def test_parallel_sweep_identical_to_serial(workload):
    serial, _ = sweep(workload, jobs=1)
    parallel, stats = sweep(workload, jobs=4)
    assert stats["simulated"] == len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert a.same_result(b), f"parallel cell diverged: {a} vs {b}"
        # everything except wall_seconds must be byte-identical
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_seconds"), db.pop("wall_seconds")
        assert da == db


def test_figure_parallel_identical_to_serial():
    """The CLI path: ``repro figure --id fig5a --jobs 4`` == serial."""
    serial = run_figure("fig5a", scale="tiny", node_counts=(2,), jobs=1)
    parallel = run_figure("fig5a", scale="tiny", node_counts=(2,), jobs=4)
    assert len(serial.cells) == len(parallel.cells) > 0
    for a, b in zip(serial.cells, parallel.cells):
        assert a.same_result(b)


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------
def test_second_sweep_served_entirely_from_cache(workload, tmp_path):
    first, stats1 = sweep(workload, jobs=2, cache_dir=tmp_path)
    assert stats1["simulated"] == len(first)
    assert stats1["cache_hits"] == 0

    second, stats2 = sweep(workload, jobs=2, cache_dir=tmp_path)
    assert stats2["simulated"] == 0, "second sweep must run zero simulations"
    assert stats2["cache_hits"] == len(second)
    for a, b in zip(first, second):
        assert a.same_result(b)


def test_cache_hits_equal_across_serial_and_parallel(workload, tmp_path):
    first, _ = sweep(workload, jobs=1, cache_dir=tmp_path)
    cached, stats = sweep(workload, jobs=4, cache_dir=tmp_path)
    assert stats["simulated"] == 0
    for a, b in zip(first, cached):
        assert a.same_result(b)


def test_cache_invalidated_by_seed_change(workload, tmp_path):
    _, stats0 = sweep(workload, cache_dir=tmp_path, seed=0)
    _, stats1 = sweep(workload, cache_dir=tmp_path, seed=1)
    assert stats1["simulated"] == stats1["cells"], "new seed must miss the cache"


def test_cache_invalidated_by_workload_change(workload, tmp_path):
    _, stats0 = sweep(workload, cache_dir=tmp_path)
    rescaled = workload.scaled_to(workload.total_cost * 2.0)
    _, stats1 = sweep(rescaled, cache_dir=tmp_path)
    assert stats1["simulated"] == stats1["cells"], "new costs must miss the cache"


def test_cache_rejects_corrupt_entries(workload, tmp_path):
    cells, _ = sweep(workload, cache_dir=tmp_path)
    for path in tmp_path.glob("*.json"):
        path.write_text("{not json")
    again, stats = sweep(workload, cache_dir=tmp_path)
    assert stats["simulated"] == stats["cells"]
    for a, b in zip(cells, again):
        assert a.same_result(b)


# ---------------------------------------------------------------------------
# keys and serialization
# ---------------------------------------------------------------------------
def test_cell_dict_roundtrip():
    cell = Cell(
        approach="mpi+mpi",
        inter="GSS",
        intra="SS",
        nodes=4,
        time=1.25,
        overhead_fraction=0.1,
        idle_fraction=0.05,
        cov=0.3,
        n_events=12345,
        wall_seconds=0.7,
    )
    assert Cell.from_dict(cell.to_dict()) == cell


def test_workload_fingerprint_tracks_costs():
    a = Workload("w", np.array([1.0, 2.0, 3.0]))
    b = Workload("w", np.array([1.0, 2.0, 3.0]))
    c = Workload("w", np.array([1.0, 2.0, 3.0001]))
    d = Workload("w2", np.array([1.0, 2.0, 3.0]))
    assert workload_fingerprint(a) == workload_fingerprint(b)
    assert workload_fingerprint(a) != workload_fingerprint(c)
    assert workload_fingerprint(a) != workload_fingerprint(d)


def test_workload_fingerprint_tracks_dtype():
    """Byte-identical buffers of different dtypes are different cost
    vectors and must not collide under one cache key (PR-9 bugfix)."""

    class _CostsOnly:
        # duck-typed stand-in: Workload itself normalises to float64,
        # but workload_fingerprint's contract is over any (name, n,
        # costs) triple
        def __init__(self, costs):
            self.name, self.costs = "w", costs

        @property
        def n(self):
            return int(self.costs.size)

    floats = np.array([1.0, 2.0, 3.0], dtype=np.float64)
    reinterpreted = floats.view(np.int64)  # same bytes, different dtype
    assert floats.tobytes() == reinterpreted.tobytes()
    assert workload_fingerprint(_CostsOnly(floats)) != workload_fingerprint(
        _CostsOnly(reinterpreted)
    )


def test_cell_key_distinguishes_every_input(workload):
    fp = workload_fingerprint(workload)
    cluster = minihpc(2, 4)
    base = cell_key(fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0)
    assert base == cell_key(fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0)
    variants = [
        cell_key(fp, cluster, "mpi+openmp", "GSS", "SS", 2, 4, 0),
        cell_key(fp, cluster, "mpi+mpi", "TSS", "SS", 2, 4, 0),
        cell_key(fp, cluster, "mpi+mpi", "GSS", "STATIC", 2, 4, 0),
        cell_key(fp, cluster, "mpi+mpi", "GSS", "SS", 4, 4, 0),
        cell_key(fp, cluster, "mpi+mpi", "GSS", "SS", 2, 8, 0),
        cell_key(fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 7),
        cell_key(fp, minihpc(4, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0),
        # PR-5 inputs: the NUMA tier, cost-model overrides, and the
        # window-placement policy all change the simulated result, so
        # each must change the digest
        cell_key(
            fp, minihpc(2, 4, sockets_per_node=2, numa_per_socket=2),
            "mpi+mpi", "GSS", "SS", 2, 4, 0,
        ),
        cell_key(
            fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0,
            costs=CALIBRATED_COSTS,
        ),
        cell_key(
            fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0,
            placement="optimized",
        ),
        cell_key(
            fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0,
            placement={"global": 3},
        ),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_sweep_builds_each_cluster_once_per_node_count(workload, tmp_path):
    calls = []

    def spy_factory(nodes):
        calls.append(nodes)
        return minihpc(nodes, 4)

    def run(cache_dir):
        runner = GridRunner(
            workload=workload, ppn=4, node_counts=(2, 4),
            cluster_factory=spy_factory, cache_dir=str(cache_dir),
        )
        cells = runner.sweep("GSS", ("STATIC", "SS", "GSS"), APPROACHES)
        return cells, runner.last_sweep_stats

    cold, cold_stats = run(tmp_path)
    assert sorted(calls) == [2, 4]
    assert cold_stats["simulated"] == cold_stats["cells"] > 2
    calls.clear()
    warm, warm_stats = run(tmp_path)
    assert sorted(calls) == [2, 4]
    assert warm_stats["simulated"] == 0
    assert len(warm) == len(cold)
    for a, b in zip(cold, warm):
        assert a.same_result(b)


def test_cell_cache_len_and_version_guard(workload, tmp_path):
    cache = CellCache(str(tmp_path))
    assert len(cache) == 0
    cells, _ = sweep(workload, cache_dir=tmp_path)
    cache = CellCache(str(tmp_path))
    assert len(cache) == len(cells)


# ---------------------------------------------------------------------------
# robustness: quarantine, worker-crash retry, fault-aware keys (PR 6)
# ---------------------------------------------------------------------------
def test_corrupt_cache_files_are_quarantined(workload, tmp_path):
    cells, _ = sweep(workload, cache_dir=tmp_path)
    n = len(list(tmp_path.glob("*.json")))
    for path in tmp_path.glob("*.json"):
        path.write_text("{not json")
    again, stats = sweep(workload, cache_dir=tmp_path)
    assert stats["simulated"] == stats["cells"]
    # every corrupt file was moved aside, not retried or deleted
    assert len(list(tmp_path.glob("*.json.corrupt"))) == n
    # ... and the re-simulated results were re-published cleanly
    third, stats3 = sweep(workload, cache_dir=tmp_path)
    assert stats3["cache_hits"] == len(third)
    for a, b in zip(cells, third):
        assert a.same_result(b)


def test_stale_version_files_are_quarantined(workload, tmp_path):
    import json

    sweep(workload, cache_dir=tmp_path)
    for path in tmp_path.glob("*.json"):
        payload = json.loads(path.read_text())
        payload["version"] = 1
        path.write_text(json.dumps(payload))
    cache = CellCache(str(tmp_path))
    fp = workload_fingerprint(workload)
    key = cell_key(fp, minihpc(2, 4), "mpi+mpi", "GSS", "STATIC", 2, 4, 0)
    assert cache.get(key) is None
    assert cache.quarantined + cache.misses >= 1


def test_schema_drift_within_version_is_quarantined(tmp_path):
    import json
    from repro.experiments.parallel import CACHE_FORMAT_VERSION

    cache = CellCache(str(tmp_path))
    key = "0" * 64
    with open(cache._path(key), "w", encoding="utf-8") as fh:
        json.dump(
            {"version": CACHE_FORMAT_VERSION, "cell": {"bogus_field": 1}}, fh
        )
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert not list(tmp_path.glob("*.json"))
    assert len(list(tmp_path.glob("*.json.corrupt"))) == 1


def test_cell_key_tracks_fault_model(workload):
    from repro.cluster.faults import NO_FAULTS, FaultModel

    fp = workload_fingerprint(workload)
    cluster = minihpc(2, 4)
    base = cell_key(fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0)
    # an inactive model produces the fault-free event stream, so it
    # must key identically to faults=None (cache sharing is correct)
    assert cell_key(
        fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0, faults=NO_FAULTS
    ) == base
    crashed = cell_key(
        fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0,
        faults=FaultModel.parse("crash:1@0.001"),
    )
    assert crashed != base
    assert crashed != cell_key(
        fp, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0,
        faults=FaultModel.parse("crash:1@0.002"),
    )


def _crash_specs():
    specs = [("mpi+mpi", "GSS", intra, nodes) for intra in ("STATIC", "SS") for nodes in (2, 4)]
    return specs, [minihpc(spec[3], 4) for spec in specs]


def test_run_cells_survives_broken_process_pool(workload, monkeypatch, tmp_path):
    """A worker that dies (``os._exit``, as under the OOM killer) breaks
    its pool: the pool is replaced and the cells it left unfinished run
    again, so the sweep equals the serial one and no process is left."""
    import multiprocessing
    import os

    from repro.experiments import harness, parallel

    specs, clusters = _crash_specs()
    expected = parallel.run_cells(workload, specs, clusters, 4, 0, jobs=1)
    real, parent, marker = harness.simulate_cell, os.getpid(), str(tmp_path / "died")

    def die_once(*args, **kwargs):
        if os.getpid() != parent:
            try:  # the first worker to get here dies, nobody after it
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                os._exit(1)
            except FileExistsError:
                pass
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_cell", die_once)
    got = parallel.run_cells(workload, specs, clusters, 4, 0, jobs=2)
    assert os.path.exists(marker), "no worker died"
    assert len(got) == len(expected)
    for a, b in zip(expected, got):
        assert a.same_result(b)
    assert multiprocessing.active_children() == []


def test_run_cells_reports_a_poison_cell_once(workload, monkeypatch, tmp_path):
    """A cell that kills every worker it reaches is tried on two pools,
    then raised once; the other cells still reach ``on_result``."""
    import multiprocessing
    import os
    import time
    from concurrent.futures.process import BrokenProcessPool

    from repro.experiments import harness, parallel

    specs, clusters = _crash_specs()
    expected = parallel.run_cells(workload, specs, clusters, 4, 0, jobs=1)
    real, parent, poison = harness.simulate_cell, os.getpid(), specs[1]

    def kill_worker(workload, cluster, *spec_and_rest, **kwargs):
        if tuple(spec_and_rest[:4]) != poison:
            return real(workload, cluster, *spec_and_rest, **kwargs)
        if os.getpid() == parent:
            raise RuntimeError("the poison cell ran in the test process")
        # die once the parent holds every other cell, so that no healthy
        # cell is unfinished when a pool breaks
        deadline = time.monotonic() + 60
        while len(os.listdir(tmp_path)) < len(specs) - 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)

    reached = {}

    def on_result(index, cell):
        reached[index] = cell
        (tmp_path / str(index)).touch()

    monkeypatch.setattr(harness, "simulate_cell", kill_worker)
    with pytest.raises(BrokenProcessPool):
        parallel.run_cells(workload, specs, clusters, 4, 0, jobs=2, on_result=on_result)
    assert sorted(reached) == [0, 2, 3]
    for index, cell in reached.items():
        assert cell.same_result(expected[index])
    assert multiprocessing.active_children() == []


def test_grid_runner_threads_faults(workload):
    from repro.cluster.faults import FaultModel

    runner = GridRunner(
        workload=workload,
        ppn=4,
        node_counts=(2,),
        faults=FaultModel.parse("crash:1@0.001"),
    )
    cells = runner.sweep("GSS", ("SS",), [("mpi+mpi", lambda intra: True)])
    assert all(cell.n_failures >= 1 for cell in cells)


def test_faulted_and_fault_free_sweeps_do_not_share_cache(workload, tmp_path):
    from repro.cluster.faults import FaultModel

    plain = GridRunner(
        workload=workload, ppn=4, node_counts=(2,),
        cache_dir=str(tmp_path),
    )
    plain_cells = plain.sweep("GSS", ("SS",), [("mpi+mpi", lambda i: True)])
    faulted = GridRunner(
        workload=workload, ppn=4, node_counts=(2,),
        cache_dir=str(tmp_path),
        faults=FaultModel.parse("crash:1@0.001"),
    )
    faulted_cells = faulted.sweep("GSS", ("SS",), [("mpi+mpi", lambda i: True)])
    assert faulted.last_sweep_stats["cache_hits"] == 0
    assert plain_cells[0].n_failures == 0
    assert faulted_cells[0].n_failures == 1


def test_fault_variant_smoke():
    from repro.experiments.figures import fault_variant, run_variant

    spec = fault_variant("fig5a", n_nodes=2, ppn=4, crash_counts=(0, 2),
                         inters=("FAC2",))
    result = run_variant(spec, scale="tiny")
    assert result.all_passed, result.to_text()
    assert "crash-stop" in result.to_text()
    assert result.degradation("FAC2", 2) >= -0.01
