"""Tier-2 scaling smoke for the cohort engine (PR-10).

Marked ``slow`` (see tests/conftest.py): excluded from the default
tier-1 run, selected by the CI tier-2 job with ``-m slow``.  Pins the
scaling claim behind the cohort engine:

* a 1000-node x 64-rank SS+GSS cell — 64,000 simulated ranks, the
  scale the paper's experiments could not reach — completes under a
  hard wall-time budget (the scalar engine needs ~4.5 minutes for the
  same cell on the reference machine; see BENCH_PR10.json);
* the macro-event count stays far below the scalar engine's rank-event
  count (the aggregation is real, not a relabeling), at depth 2 and on
  a depth-3 socket stack;
* the 64,000-rank cell's peak-RSS growth stays at most
  :data:`MAX_KB_PER_RANK` per rank (the world builds no per-rank
  contexts or mailboxes on the cohort path), measured in a fresh child.

The wall budget is deliberately loose (shared CI runners), so this
test is *blocking on completion, non-blocking on timing trends* —
regressions in the trend are read off BENCH_PR10.json instead.
"""

import os
import subprocess
import sys
import time

import pytest

import repro

from repro.api import run_hierarchical
from repro.cluster.machine import homogeneous
from repro.cluster.noise import NO_NOISE
from repro.workloads import uniform_workload

#: wall budget (seconds) for the 64k-rank cell; ~12 s on the reference
#: machine, with a wide allowance for slower shared runners
WALL_BUDGET_S = 120.0

#: peak-RSS growth bound (KiB per simulated rank) for the 64k-rank cell;
#: 0.90 on the reference machine, 1.48 while every rank had a context
#: and a mailbox
MAX_KB_PER_RANK = 1.0

#: runs the 64k-rank cell; prints its peak-RSS growth in KiB
RSS_CHILD = """
import resource
from repro.api import run_hierarchical
from repro.cluster.machine import homogeneous
from repro.cluster.noise import NO_NOISE
from repro.workloads import uniform_workload

wl = uniform_workload(20000, low=5e-5, high=2e-3, seed=0)
cluster = homogeneous(1000, 64)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run_hierarchical(
    wl, cluster, inter="SS", intra="GSS", seed=0, noise=NO_NOISE,
    collect_chunks=False, engine="cohort",
)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def _workload():
    return uniform_workload(20000, low=5e-5, high=2e-3, seed=3)


@pytest.mark.slow
def test_64k_rank_cell_completes_within_wall_budget():
    wl = _workload()
    t0 = time.perf_counter()
    result = run_hierarchical(
        wl, homogeneous(1000, 64), inter="SS", intra="GSS", seed=0,
        noise=NO_NOISE, collect_chunks=False, engine="cohort",
    )
    wall = time.perf_counter() - t0
    assert wall < WALL_BUDGET_S, (
        f"64k-rank SS+GSS cell took {wall:.1f}s (budget {WALL_BUDGET_S}s)"
    )
    # sanity: the run actually simulated the whole workload
    assert result.parallel_time > 0
    assert sum(w.n_iterations for w in result.metrics.workers) == wl.n


@pytest.mark.slow
def test_macro_events_far_below_scalar_rank_events():
    """At a 10^4-rank scale the cohort engine processes an order of
    magnitude fewer events than the scalar engine for the same cell,
    while agreeing bit-for-bit on the makespan."""
    wl = uniform_workload(4000, low=5e-5, high=2e-3, seed=3)
    cell = dict(inter="SS", intra="GSS", seed=0, noise=NO_NOISE,
                collect_chunks=False)
    cluster = homogeneous(157, 64)  # 10,048 ranks
    scalar = run_hierarchical(wl, cluster, **cell)
    cohort = run_hierarchical(wl, cluster, engine="cohort", **cell)
    assert scalar.parallel_time.hex() == cohort.parallel_time.hex()
    assert cohort.n_events * 10 < scalar.n_events, (
        f"expected >=10x event reduction, got scalar={scalar.n_events} "
        f"cohort={cohort.n_events}"
    )


@pytest.mark.slow
def test_depth3_macro_events_far_below_scalar_rank_events():
    """The tier driver condenses a depth-3 (node -> socket) stack at
    10^4 ranks just as well, with the scalar makespan bit-for-bit."""
    wl = uniform_workload(4000, low=5e-5, high=2e-3, seed=3)
    cell = dict(inter="SS+GSS+GSS", seed=0, noise=NO_NOISE,
                collect_chunks=False)
    cluster = homogeneous(157, 64, sockets_per_node=2)  # 10,048 ranks
    scalar = run_hierarchical(wl, cluster, **cell)
    cohort = run_hierarchical(wl, cluster, engine="cohort", **cell)
    assert scalar.parallel_time.hex() == cohort.parallel_time.hex()
    assert cohort.n_events * 10 < scalar.n_events, (
        f"expected >=10x event reduction, got scalar={scalar.n_events} "
        f"cohort={cohort.n_events}"
    )


@pytest.mark.slow
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux"
)
def test_64k_rank_cell_peak_rss_per_rank():
    """Peak-RSS growth of the 64k-rank cohort cell, in a fresh process
    (the test runner's own heap would hide it), per simulated rank."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", RSS_CHILD], capture_output=True, text=True,
        env=env, timeout=WALL_BUDGET_S,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    kb_per_rank = int(proc.stdout.split()[-1]) / 64000
    assert kb_per_rank <= MAX_KB_PER_RANK, (
        f"64k-rank cell grew peak RSS by {kb_per_rank:.2f} KiB per rank "
        f"(bound {MAX_KB_PER_RANK})"
    )
