"""Warm reads of the cell cache: the read memo behind ``CellCache.get``.

``get`` reads the cache file on every call; when the bytes equal those
of the last valid read of that path it returns the cell decoded then.
These tests pin what that may and may not change: a repeat warm sweep
decodes nothing, any byte difference (a re-``put``, an in-place
corruption, a stale version) takes the full decode with its quarantine
and counters, the memo stays bounded, and the hit/miss counts are those
of a cache without it.  The workload fingerprint memo is checked here
too: it must follow a replaced cost array.  So are the rest of the warm
path's costs: the file is read to its end through one descriptor that
is always closed, and a root is listed for stale temp files at most
once per reap age in a process.
"""

import json
import os
import pickle
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import parallel
from repro.experiments.figures import APPROACHES
from repro.experiments.harness import Cell, GridRunner
from repro.experiments.parallel import (
    CACHE_FORMAT_VERSION,
    CellCache,
    workload_fingerprint,
)
from repro.experiments.workloads import figure_workload
from repro.workloads.base import Workload


@pytest.fixture(scope="module")
def workload():
    return figure_workload("mandelbrot", "tiny")


def sweep(workload, cache_dir):
    runner = GridRunner(
        workload=workload, ppn=4, node_counts=(2,), seed=0,
        cache_dir=str(cache_dir),
    )
    cells = runner.sweep("GSS", ("STATIC", "GSS"), APPROACHES)
    return cells, runner.last_sweep_stats


def make_cell(index, wall_seconds=0.5):
    return Cell(
        approach="mpi+mpi", inter="GSS", intra="SS", nodes=2 + index,
        time=1.0 + index, overhead_fraction=0.1, idle_fraction=0.2,
        cov=0.05, n_events=100 + index, wall_seconds=wall_seconds,
    )


@pytest.fixture
def decodes(monkeypatch):
    """Count the JSON decodes and ``Cell.from_dict`` calls of a test."""
    counts = {"loads": 0, "from_dict": 0}
    loads, from_dict = json.loads, Cell.from_dict.__func__

    def counting_loads(*args, **kwargs):
        counts["loads"] += 1
        return loads(*args, **kwargs)

    def counting_from_dict(cls, payload):
        counts["from_dict"] += 1
        return from_dict(cls, payload)

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(Cell, "from_dict", classmethod(counting_from_dict))
    return counts


def test_second_warm_sweep_decodes_no_file(workload, tmp_path, decodes):
    cold, _ = sweep(workload, tmp_path)
    first_warm, _ = sweep(workload, tmp_path)
    assert decodes["from_dict"] == len(cold)
    decodes.update(loads=0, from_dict=0)
    second_warm, stats = sweep(workload, tmp_path)
    assert stats["cache_hits"] == len(cold)
    assert decodes == {"loads": 0, "from_dict": 0}
    for a, b, c in zip(cold, first_warm, second_warm):
        assert a.same_result(b) and b == c


def test_reput_with_other_bytes_is_returned(tmp_path):
    cache = CellCache(str(tmp_path))
    key = "a" * 64
    cache.put(key, make_cell(0, wall_seconds=0.5))
    assert cache.get(key).wall_seconds == 0.5
    cache.put(key, make_cell(0, wall_seconds=0.75))
    assert cache.get(key).wall_seconds == 0.75
    assert cache.stats()["hits"] == 2


@pytest.mark.parametrize("edit", ["corrupt", "stale-version"])
def test_in_place_edit_after_memoised_read_is_quarantined(tmp_path, edit):
    cache = CellCache(str(tmp_path))
    key = "b" * 64
    cache.put(key, make_cell(1))
    assert cache.get(key) == make_cell(1)
    path = tmp_path / f"{key}.json"
    if edit == "corrupt":
        path.write_bytes(path.read_bytes()[:-7])
    else:
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_FORMAT_VERSION - 1
        path.write_text(json.dumps(payload, sort_keys=True))
    assert cache.get(key) is None
    assert cache.stats()["misses"] == 1
    assert cache.stats()["quarantined"] == 1
    assert not path.exists()
    assert (tmp_path / f"{key}.json.corrupt").exists()
    # the key misses cleanly from then on, memo or not
    assert cache.get(key) is None
    assert cache.stats()["misses"] == 2


def test_memo_stays_bounded(tmp_path, monkeypatch, decodes):
    monkeypatch.setattr(parallel, "READ_MEMO_CAP", 4)
    cache = CellCache(str(tmp_path))
    keys = [f"{i:064x}" for i in range(10)]
    for i, key in enumerate(keys):
        cache.put(key, make_cell(i))
    for i, key in enumerate(keys):
        assert cache.get(key) == make_cell(i)
    assert len(parallel._READ_MEMO) <= 4
    decodes.update(loads=0, from_dict=0)
    # the newest reads are remembered, the evicted ones decode again
    assert [cache.get(key) for key in keys[-4:]] == [make_cell(i) for i in range(6, 10)]
    assert decodes["from_dict"] == 0
    assert cache.get(keys[0]) == make_cell(0)
    assert decodes["from_dict"] == 1
    assert len(parallel._READ_MEMO) <= 4


def test_concurrent_reads_with_eviction(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "READ_MEMO_CAP", 3)
    cache = CellCache(str(tmp_path))
    keys = [f"{i:064x}" for i in range(12)]
    for i, key in enumerate(keys):
        cache.put(key, make_cell(i))
    errors = []

    def reader(offset):
        try:
            for round_ in range(20):
                for i in range(len(keys)):
                    j = (i + offset + round_) % len(keys)
                    assert cache.get(keys[j]) == make_cell(j)
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert cache.stats()["hits"] == 4 * 20 * len(keys)
    assert len(parallel._READ_MEMO) <= 3


def test_cold_then_warm_counts_are_unchanged(workload, tmp_path, monkeypatch):
    """Every read is a miss on the cold sweep and a hit on each warm
    one, exactly as without the memo."""
    instances = []

    class RecordingCache(CellCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            instances.append(self)

    monkeypatch.setattr(parallel, "CellCache", RecordingCache)
    cold, _ = sweep(workload, tmp_path)
    sweep(workload, tmp_path)
    sweep(workload, tmp_path)
    n = len(cold)
    assert [c.stats() for c in instances] == [
        {"hits": 0, "misses": n, "quarantined": 0, "reaped": 0},
        {"hits": n, "misses": 0, "quarantined": 0, "reaped": 0},
        {"hits": n, "misses": 0, "quarantined": 0, "reaped": 0},
    ]


def test_replaced_costs_get_a_new_fingerprint():
    costs = np.array([1.0, 2.0, 3.0])
    w = Workload("w", costs)
    first = workload_fingerprint(w)
    assert workload_fingerprint(w) == first
    w.costs = np.array([1.0, 2.0, 3.5])
    second = workload_fingerprint(w)
    assert second != first
    assert second == workload_fingerprint(Workload("w", w.costs))
    w.name = "renamed"
    assert workload_fingerprint(w) == workload_fingerprint(Workload("renamed", w.costs))
    # the memo is per process: a pickle carries no fingerprint
    assert pickle.loads(pickle.dumps(w))._fingerprint is None


def test_cell_to_dict_matches_asdict():
    from dataclasses import asdict

    cell = replace(make_cell(3), placement_cost=0.25, n_failures=1)
    assert cell.to_dict() == asdict(cell)
    assert list(cell.to_dict()) == list(asdict(cell))
    assert Cell.from_dict(cell.to_dict()) == cell


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_directory_at_key_path_is_quarantined_without_leaking_an_fd(tmp_path):
    cache = CellCache(str(tmp_path))
    key = "d" * 64
    (tmp_path / f"{key}.json").mkdir()
    before = open_fds()
    assert cache.get(key) is None
    assert open_fds() == before, "a failed read leaked its file descriptor"
    assert cache.stats()["misses"] == 1
    assert cache.stats()["quarantined"] == 1
    assert not (tmp_path / f"{key}.json").exists()
    assert (tmp_path / f"{key}.json.corrupt").is_dir()


def test_file_padded_past_256_kib_is_read_to_the_end(tmp_path):
    """Whitespace on both sides of the payload puts its closing brace
    past 256 KiB, so a read that stops short of EOF cannot decode it."""
    cache = CellCache(str(tmp_path))
    key = "e" * 64
    cache.put(key, make_cell(2))
    path = tmp_path / f"{key}.json"
    pad = b" " * (300 * 1024)
    path.write_bytes(pad + path.read_bytes() + pad)
    assert path.stat().st_size > 2 * 256 * 1024
    assert cache.get(key) == make_cell(2)
    assert cache.get(key) == make_cell(2)
    assert cache.stats() == {"hits": 2, "misses": 0, "quarantined": 0, "reaped": 0}


def test_a_root_is_listed_once_per_reap_age(tmp_path, monkeypatch):
    """A root is listed for its stale ``*.tmp`` files at the first
    construction in a process, and again only once ``reap_age_s`` has
    passed since."""
    listed = []
    listdir = os.listdir

    def counting_listdir(path="."):
        listed.append(os.path.abspath(path))
        return listdir(path)

    monkeypatch.setattr(parallel.os, "listdir", counting_listdir)
    clock = [1000.0]
    monkeypatch.setattr(parallel.time, "monotonic", lambda: clock[0])
    root = tmp_path / "cache"
    root.mkdir()
    stale = root / "tmpdead02.tmp"
    stale.write_text("{half a payl")
    old = time.time() - 7200
    os.utime(stale, (old, old))

    first = CellCache(str(root))
    assert first.stats()["reaped"] == 1
    assert not stale.exists()
    second = CellCache(str(root))
    assert second.stats()["reaped"] == 0
    assert listed == [str(root)]

    other = tmp_path / "other"
    CellCache(str(other))
    assert listed == [str(root), str(other)]

    clock[0] += CellCache.REAP_AGE_S - 1
    CellCache(str(root))
    assert listed.count(str(root)) == 1
    clock[0] += 1
    CellCache(str(root))
    assert listed.count(str(root)) == 2
