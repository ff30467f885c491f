"""A run too large for its memory fails cleanly.

Each test runs one oversized cell in a fresh child process whose
address space is capped with ``resource.setrlimit(RLIMIT_AS)``, which
limits that child only.  The cap is the child's own address space once
its inputs are built plus :data:`HEADROOM_MB`, so it does not depend on
how much the interpreter and NumPy map at start-up.  The run must raise
``MemoryError`` (bare, or as the cause of the failed rank's
:class:`~repro.sim.engine.ProcessFailure`) within seconds: it must not
stall, and the kernel's OOM killer must not have to end it.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc/self/status and relies on Linux RLIMIT_AS",
)

#: address space (MB) the cell may map beyond what its child holds when
#: the cap is set.  The 19 200-rank scalar cell's world fits in it and
#: its ranks' first steps do not, so it fails inside a rank process (it
#: does from ~48 to ~58 MB on the reference machine).
HEADROOM_MB = 52

#: a hang shows as a child that outlives this (seconds)
CHILD_TIMEOUT_S = 120

CHILD = textwrap.dedent(
    """
    import json, os, resource, sys, time

    from repro.cluster.machine import homogeneous
    from repro.cluster.noise import NO_NOISE
    from repro.workloads import uniform_workload

    kind, nodes, headroom_mb, cache_dir = sys.argv[1:5]
    workload = uniform_workload(20000, low=5e-5, high=2e-3, seed=0)
    cluster = homogeneous(int(nodes), 64)
    if kind == "sweep":
        from repro.experiments.harness import GridRunner

        runner = GridRunner(
            workload, ppn=64, node_counts=(int(nodes),),
            cluster_factory=lambda n: cluster, cache_dir=cache_dir,
        )
        cell = lambda: runner.sweep("SS", ["GSS"], [("mpi+mpi", lambda i: True)])
    else:
        from repro.api import run_hierarchical

        cell = lambda: run_hierarchical(
            workload, cluster, inter="SS", intra="GSS", seed=0,
            noise=NO_NOISE, collect_chunks=False, engine=kind,
        )

    def address_space():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) * 1024

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    uncapped = (hard, hard)
    cap = address_space() + (int(headroom_mb) << 20)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    start = time.perf_counter()
    try:
        cell()
        failure = None
    except BaseException as exc:
        resource.setrlimit(resource.RLIMIT_AS, uncapped)
        failure = exc
    seconds = time.perf_counter() - start
    resource.setrlimit(resource.RLIMIT_AS, uncapped)
    cause = failure.__cause__ if failure is not None else None
    print(json.dumps({
        "raised": type(failure).__name__ if failure is not None else None,
        "memory_error": isinstance(failure, MemoryError),
        "cause_memory_error": isinstance(cause, MemoryError),
        "seconds": seconds,
        "left": sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else [],
    }))
    """
)


def _run_child(kind, nodes, cache_dir, headroom_mb=HEADROOM_MB):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, kind, str(nodes), str(headroom_mb),
         str(cache_dir)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    # a negative code is a signal (the OOM killer sends SIGKILL)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_oversized_cohort_cell_raises_memory_error(tmp_path):
    # 128 000 ranks: no rank processes run, so nothing wraps the error
    outcome = _run_child("cohort", 2000, tmp_path / "unused")
    assert outcome["raised"] == "MemoryError", outcome
    assert outcome["seconds"] < 30.0, outcome


def test_oversized_scalar_cell_fails_the_rank_that_ran_out(tmp_path):
    # 19 200 ranks: the allocation fails in a rank's own step
    outcome = _run_child("scalar", 300, tmp_path / "unused")
    assert outcome["raised"] == "ProcessFailure", outcome
    assert outcome["cause_memory_error"], outcome
    assert outcome["seconds"] < 30.0, outcome


@pytest.mark.parametrize("headroom_mb", [30, 38, 46])
def test_scalar_cell_out_of_memory_never_stalls(tmp_path, headroom_mb):
    # with less headroom the allocation that fails can be the engine's
    # own; without the simulator's reserve the unwinding then stalled
    outcome = _run_child("scalar", 300, tmp_path / "unused", headroom_mb)
    assert outcome["memory_error"] or outcome["cause_memory_error"], outcome
    assert outcome["seconds"] < 30.0, outcome


def test_oversized_sweep_leaves_no_cache_file(tmp_path):
    cache_dir = tmp_path / "cells"
    outcome = _run_child("sweep", 300, cache_dir)
    assert outcome["memory_error"] or outcome["cause_memory_error"], outcome
    assert cache_dir.is_dir()  # the cache was opened before the run
    assert outcome["left"] == [], outcome
