"""Contracts of :class:`repro.core.chunking.ChunkLog` and of the chunk
records a run returns.

A run records every executed chunk as four integer columns; ``Chunk``
objects exist only once a caller reads the log.  These tests pin the
read side (a read-only sequence of fresh ``Chunk`` objects), the write
side (a malformed record still fails inside the simulation), the shape
of ``RunResult``'s chunk fields, and the two module globals of
``repro.models.base`` that ``_Run.finish`` calls, which the benchmark
tracer wraps.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.models.base as models_base
from repro import run_hierarchical
from repro.cluster.machine import homogeneous
from repro.core.chunking import Chunk, ChunkLog
from repro.models.base import _Run
from repro.sim.engine import ProcessFailure
from repro.workloads import uniform_workload

RECORDS = [(0, 0, 4, 1), (1, 4, 3, 0), (2, 7, 2, 1), (3, 9, 1, 0)]

CLUSTER = homogeneous(2, 4, sockets_per_node=2, numa_per_socket=2)


def make_log(records=RECORDS) -> ChunkLog:
    log = ChunkLog()
    for record in records:
        log.append(*record)
    return log


def run(stack="GSS+SS", **kwargs):
    return run_hierarchical(
        uniform_workload(200, seed=4), CLUSTER, inter=stack,
        approach="mpi+mpi", ppn=4, seed=1, **kwargs,
    )


# -- the log on its own --------------------------------------------------


def test_log_reads_back_chunks_in_record_order():
    log = make_log()
    expected = [Chunk(*record) for record in RECORDS]
    assert len(log) == 4
    assert list(log) == expected
    assert log[0] == expected[0]
    assert log[-1] == expected[-1]
    assert log[-4] == expected[0]
    assert log[1:3] == expected[1:3]
    assert log[::-2] == expected[::-2]
    with pytest.raises(IndexError):
        log[4]
    with pytest.raises(IndexError):
        log[-5]


def test_log_builds_fresh_chunks_on_every_read():
    log = make_log()
    assert log[0] == log[0] and log[0] is not log[0]
    assert next(iter(log)) is not next(iter(log))


def test_log_compares_element_wise_with_any_sequence():
    log = make_log()
    expected = [Chunk(*record) for record in RECORDS]
    assert log == expected
    assert log == tuple(expected)
    assert log == make_log()
    assert log != expected[:-1]
    assert log != [*expected[:-1], Chunk(3, 9, 1, 1)]
    assert ChunkLog() == []
    assert ChunkLog() != log
    assert ChunkLog(expected) == log


def test_log_pickles_round_trip():
    log = make_log()
    clone = pickle.loads(pickle.dumps(log))
    assert isinstance(clone, ChunkLog)
    assert clone == log
    clone.append(4, 10, 2, 1)
    assert len(clone) == 5 and len(log) == 4


def test_columns_is_a_copy_that_leaves_the_log_appendable():
    log = make_log()
    columns = log.columns()
    assert columns.dtype == np.int64 and columns.shape == (4, 4)
    assert columns.tolist() == [list(record) for record in RECORDS]
    log.append(4, 10, 2, 1)  # no exported buffer pins the array
    columns[0, 0] = 99
    assert log[0].step == 0
    assert ChunkLog().columns().shape == (0, 4)


@pytest.mark.parametrize("record", [(0, -1, 3, 0), (0, 2, -3, 0)])
def test_append_rejects_a_malformed_record_like_chunk(record):
    with pytest.raises(ValueError) as from_chunk:
        Chunk(*record)
    log = make_log()
    with pytest.raises(ValueError) as from_log:
        log.append(*record)
    assert str(from_log.value) == str(from_chunk.value)
    assert str(from_log.value).startswith("malformed chunk Chunk(")
    assert len(log) == 4


# -- records of a run ----------------------------------------------------


def test_malformed_record_fails_inside_the_simulation(monkeypatch):
    calls = []
    record_subchunk = _Run.record_subchunk

    def corrupt_third(self, step, start, size, pe):
        calls.append(step)
        if len(calls) == 3:
            start = -1
        record_subchunk(self, step, start, size, pe)

    monkeypatch.setattr(_Run, "record_subchunk", corrupt_third)
    with pytest.raises(ProcessFailure) as info:
        run()
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value.__cause__).startswith("malformed chunk")
    assert len(calls) == 3  # raised at record time, not at finish


@pytest.mark.parametrize("stack", ["GSS+SS", "GSS+FAC2+FAC2+SS"])
def test_level_chunks_share_the_root_and_leaf_logs(stack):
    result = run(stack)
    depth = len(stack.split("+"))
    assert len(result.level_chunks) == depth
    assert all(isinstance(level, ChunkLog) for level in result.level_chunks)
    assert result.level_chunks[0] is result.chunks
    assert result.level_chunks[-1] is result.subchunks
    assert sum(c.size for c in result.subchunks) == 200


def test_collect_chunks_false_leaves_empty_logs():
    result = run(collect_chunks=False)
    assert result.chunks == [] and result.subchunks == []
    assert result.level_chunks == []


def test_a_run_builds_no_chunk_until_its_records_are_read(monkeypatch):
    built = []
    post_init = Chunk.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Chunk, "__post_init__", counting_post_init)
    result = run(collect_chunks=True)
    assert built == []
    n_subchunks = sum(w.n_chunks for w in result.metrics.workers)
    assert len(result.subchunks) == n_subchunks
    assert built == []
    subchunks = list(result.subchunks)
    assert len(subchunks) == n_subchunks
    assert len(built) == n_subchunks


# -- the tracer's hook ---------------------------------------------------


@pytest.mark.parametrize("collect, verify_calls", [(True, 1), (False, 0)])
def test_finish_calls_the_module_globals_the_tracer_wraps(
    monkeypatch, collect, verify_calls
):
    calls = {"verify_schedule": 0, "compute_metrics": 0}

    def counting(name):
        original = getattr(models_base, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(models_base, name, counting(name))
    run(collect_chunks=collect)
    assert calls == {"verify_schedule": verify_calls, "compute_metrics": 1}
