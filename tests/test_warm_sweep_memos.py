"""Warm figure sweeps: the memos behind ``cell_key`` and ``run_checks``.

A repeat warm sweep reads and compares every cache file (the read memo
of ``CellCache.get``) and does nothing else that its inputs already
decided: ``cell_key`` returns the digest it finished before, and
``FigureResult.run_checks`` returns the checks it evaluated on the very
same cell objects.  These tests pin that a repeat sweep hashes nothing
and evaluates no check, that it still returns what an unmemoised sweep
returns, that a rewritten cache file is noticed down to the checks'
details, and that both memos stay bounded.
"""

import hashlib
import json
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest

from repro.cluster import noise
from repro.cluster.machine import minihpc
from repro.experiments import figures, parallel
from repro.experiments.figures import FigureResult, ShapeCheck, run_figure
from repro.experiments.harness import Cell
from repro.experiments.parallel import CellCache, cell_key

FP = "feed" * 16


def triples(result):
    return [(c.description, c.passed, c.detail) for c in result.checks]


def fig5a(cache_dir):
    return run_figure("fig5a", scale="tiny", node_counts=(2, 4), cache_dir=str(cache_dir))


@pytest.fixture
def spies(monkeypatch):
    """Count the SHA-256 digests and the check evaluations of a test."""
    counts = {"digests": 0, "check_bodies": 0}
    sha256, shape_checks = hashlib.sha256, FigureResult._shape_checks

    def counting_sha256(*args, **kwargs):
        counts["digests"] += 1
        return sha256(*args, **kwargs)

    def counting_shape_checks(self):
        counts["check_bodies"] += 1
        return shape_checks(self)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    monkeypatch.setattr(FigureResult, "_shape_checks", counting_shape_checks)
    return counts


def test_repeat_warm_sweep_hashes_nothing_and_evaluates_no_check(tmp_path, spies):
    cold = fig5a(tmp_path)
    first_warm = fig5a(tmp_path)
    # the cold cells were simulated, the first warm ones decoded: both
    # are new objects, so both evaluate their checks
    assert spies["check_bodies"] == 2
    spies.update(digests=0, check_bodies=0)
    second_warm = fig5a(tmp_path)
    assert spies == {"digests": 0, "check_bodies": 0}
    assert len(second_warm.cells) == len(cold.cells) == 16
    assert all(a.same_result(b) for a, b in zip(cold.cells, second_warm.cells))
    assert triples(second_warm) == triples(first_warm) == triples(cold)
    # each result has its own list; the frozen checks are shared
    assert second_warm.checks is not first_warm.checks
    assert all(a is b for a, b in zip(second_warm.checks, first_warm.checks))
    second_warm.checks.clear()
    assert triples(fig5a(tmp_path)) == triples(cold)


def test_rewritten_cache_file_reaches_the_cells_and_the_checks(tmp_path, spies):
    cold = fig5a(tmp_path)
    fig5a(tmp_path)
    fig5a(tmp_path)
    target = None
    for path in tmp_path.glob("*.json"):
        payload = json.loads(path.read_text())
        cell = payload["cell"]
        if (cell["approach"], cell["intra"], cell["nodes"]) == ("mpi+mpi", "GSS", 2):
            target = path
            break
    assert target is not None
    cell["time"] = 123.0
    target.write_text(json.dumps(payload, sort_keys=True))
    spies.update(digests=0, check_bodies=0)

    rewritten = fig5a(tmp_path)
    assert spies == {"digests": 0, "check_bodies": 1}
    assert rewritten.series("mpi+mpi", "GSS")[2] == 123.0
    (shrink,) = [c for c in rewritten.checks
                 if c.description.startswith("mpi+mpi GSS+GSS: time shrinks")]
    assert shrink.detail.startswith("123s -> ")
    assert shrink.passed
    # every other check is what the cold run computed
    changed = [t for t in triples(rewritten) if t not in triples(cold)]
    assert [d for d, _, _ in changed] == [
        "mpi+mpi GSS+GSS: time shrinks 2->4 nodes",
        "GSS+GSS: MPI+MPI same or better",
    ]


def test_cell_key_memo_stays_bounded_and_exact(monkeypatch):
    monkeypatch.setattr(parallel, "_CELL_KEYS", {})
    monkeypatch.setattr(parallel, "CELL_KEY_MEMO_CAP", 4)
    cluster = minihpc(2, 4)
    calls = [(FP, cluster, "mpi+mpi", "GSS", "SS", 2, 4, seed) for seed in range(10)]
    first = [cell_key(*args) for args in calls]
    assert len(parallel._CELL_KEYS) <= 4
    assert len(set(first)) == 10
    # the evicted digests are recomputed, the remembered ones returned
    assert [cell_key(*args) for args in calls] == first
    assert len(parallel._CELL_KEYS) <= 4


def test_cell_key_memo_keys_numbers_by_type_and_defaults_by_identity(monkeypatch):
    monkeypatch.setattr(parallel, "_CELL_KEYS", {})
    cluster = minihpc(2, 4)
    by_int = cell_key(FP, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0)
    by_float = cell_key(FP, cluster, "mpi+mpi", "GSS", "SS", 2.0, 4, 0)
    assert by_float != by_int
    monkeypatch.setattr(parallel, "_CELL_KEYS", {})
    assert cell_key(FP, cluster, "mpi+mpi", "GSS", "SS", 2.0, 4, 0) == by_float
    assert cell_key(FP, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0) == by_int

    monkeypatch.setattr(parallel, "MILD_NOISE", noise.HARSH_NOISE)
    retuned = cell_key(FP, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0)
    assert retuned != by_int
    monkeypatch.setattr(parallel, "MILD_NOISE", noise.MILD_NOISE)
    assert cell_key(FP, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0) == by_int
    # an entry holds the objects whose identities key it
    for entry in parallel._CELL_KEYS.values():
        assert entry[0] is cluster
        assert entry[1] is parallel.DEFAULT_COSTS


def test_concurrent_cell_keys_with_eviction(monkeypatch):
    """Handler threads of the sweep server share the key memo: under
    eviction every call still returns its input's digest."""
    cluster = minihpc(2, 4)
    calls = [(FP, cluster, "mpi+mpi", "GSS", "SS", 2, 4, seed) for seed in range(12)]
    monkeypatch.setattr(parallel, "_CELL_KEYS", {})
    expected = [cell_key(*args) for args in calls]
    monkeypatch.setattr(parallel, "_CELL_KEYS", {})
    monkeypatch.setattr(parallel, "CELL_KEY_MEMO_CAP", 3)
    errors = []

    def worker(offset):
        try:
            for round_ in range(30):
                for i in range(len(calls)):
                    j = (i + offset + round_) % len(calls)
                    assert cell_key(*calls[j]) == expected[j]
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(parallel._CELL_KEYS) <= 3


def make_cell(nodes, time):
    return Cell(
        approach="mpi+mpi", inter="GSS", intra="GSS", nodes=nodes, time=time,
        overhead_fraction=0.1, idle_fraction=0.2, cov=0.05, n_events=10,
        wall_seconds=0.5,
    )


def test_checks_memo_stays_bounded_and_keys_cells_by_identity(monkeypatch, spies):
    monkeypatch.setattr(figures, "_CHECKS_MEMO", {})
    monkeypatch.setattr(figures, "CHECKS_MEMO_CAP", 2)
    spec = figures.FIGURES["fig5a"]
    grids = [[make_cell(2, 2.0 + i), make_cell(4, 1.0)] for i in range(5)]
    for cells in grids:
        FigureResult(spec, cells).run_checks()
    assert len(figures._CHECKS_MEMO) <= 2
    assert spies["check_bodies"] == 5
    # equal but distinct cell objects miss; the same objects hit
    FigureResult(spec, [make_cell(2, 6.0), make_cell(4, 1.0)]).run_checks()
    assert spies["check_bodies"] == 6
    result = FigureResult(spec, list(grids[-1]))
    result.run_checks()
    assert spies["check_bodies"] == 6
    assert result.checks[0].detail == "6s -> 1s"
    assert len(figures._CHECKS_MEMO) <= 2


def test_shape_checks_are_frozen():
    check = ShapeCheck("d", passed=True, detail="x")
    with pytest.raises(FrozenInstanceError):
        check.passed = False


def test_cell_cache_root_is_created_or_refused(tmp_path):
    nested = tmp_path / "a" / "b"
    CellCache(str(nested))
    assert nested.is_dir()
    CellCache(str(nested))  # an existing root is fine
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with pytest.raises(NotADirectoryError):
        CellCache(str(blocker))
