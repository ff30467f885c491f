"""Adaptive techniques (AWF-B/C/D/E, AF) at inner (non-root) levels.

Historically the adaptive weight calculators only ever saw runtime
measurements at the inter-node level (the global queue records compute
times per node).  In the depth-generalised models, runtime feedback
flows to *every* level along the refill path — these tests pin that
behaviour: an adaptive calculator placed at the intra-node or socket
level receives ``record()`` calls carrying positive compute times and
per-child PE indices, and the run stays correct.
"""

import pytest

from repro.api import run_hierarchical, run_model
from repro.cluster.machine import heterogeneous, homogeneous
from repro.core.chunking import verify_schedule
from repro.core.hierarchy import HierarchicalSpec, LevelSpec
from repro.models import MpiMpiModel
from repro.workloads import uniform_workload

ADAPTIVE = ["AWF-B", "AWF-C", "AWF-D", "AWF-E", "AF"]


class _SpyCalc:
    """Transparent ChunkCalculator proxy that captures record() calls."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def record(self, pe, size, compute_time, overhead_time=0.0):
        self._log.append((pe, size, compute_time))
        return self._inner.record(pe, size, compute_time, overhead_time)


class _SpyLevelSpec(LevelSpec):
    """LevelSpec whose calculators report their runtime feedback."""

    def __init__(self, technique_name, log, **kwargs):
        base = LevelSpec.of(technique_name, **kwargs)
        super().__init__(
            technique=base.technique,
            weights=base.weights,
            profile=base.profile,
            min_chunk=base.min_chunk,
        )
        self._log = log
        self.made = 0

    def make_calculator(self, n, p, chunk_overhead=None):
        self.made += 1
        return _SpyCalc(
            super().make_calculator(n, p, chunk_overhead=chunk_overhead),
            self._log,
        )


@pytest.mark.parametrize("technique", ADAPTIVE)
def test_adaptive_intra_level_receives_runtime_feedback(technique):
    wl = uniform_workload(400, seed=8)
    log = []
    spy = _SpyLevelSpec(technique, log)
    spec = HierarchicalSpec(levels=(LevelSpec.of("GSS"), spy))
    result = run_model(
        MpiMpiModel(), wl, homogeneous(2, 4), spec, ppn=4, seed=1,
    )
    verify_schedule(result.subchunks, wl.n)
    assert spy.made > 0, "intra level never instantiated a calculator"
    assert log, "no runtime feedback reached the intra-level calculator"
    pes = {pe for pe, _, _ in log}
    assert pes <= set(range(4)), "intra feedback uses per-node child indices"
    assert all(dt > 0 for _, _, dt in log), "compute times must be positive"
    assert sum(size for _, size, _ in log) == wl.n


@pytest.mark.parametrize("technique", ADAPTIVE)
def test_adaptive_socket_level_receives_runtime_feedback(technique):
    """The adaptive level sits *between* root and leaf (socket tier)."""
    wl = uniform_workload(600, seed=9)
    log = []
    spy = _SpyLevelSpec(technique, log)
    spec = HierarchicalSpec(
        levels=(LevelSpec.of("GSS"), spy, LevelSpec.of("SS"))
    )
    result = run_model(
        MpiMpiModel(), wl, homogeneous(2, 8, sockets_per_node=2),
        spec, ppn=8, seed=2,
    )
    verify_schedule(result.subchunks, wl.n)
    assert log, "no runtime feedback reached the socket-level calculator"
    # socket-level children are the node's two sockets
    assert {pe for pe, _, _ in log} <= {0, 1}
    # every executed iteration is reported upward through the chain
    assert sum(size for _, size, _ in log) == wl.n


def test_adaptive_at_all_three_levels_simultaneously():
    wl = uniform_workload(500, seed=10)
    logs = {level: [] for level in range(3)}
    spec = HierarchicalSpec(
        levels=(
            _SpyLevelSpec("AWF-B", logs[0]),
            _SpyLevelSpec("AWF-C", logs[1]),
            _SpyLevelSpec("AF", logs[2]),
        )
    )
    result = run_model(
        MpiMpiModel(), wl, homogeneous(2, 4, sockets_per_node=2),
        spec, ppn=4, seed=3,
    )
    verify_schedule(result.subchunks, wl.n)
    for level, log in logs.items():
        assert log, f"level {level} got no feedback"
        assert sum(size for _, size, _ in log) == wl.n


def test_adaptive_intra_adapts_on_heterogeneous_sockets():
    """AWF at the leaf level on a heterogeneous cluster still covers the
    loop and yields a finite makespan — the adaptive path, not the
    deterministic fast path, is exercised end to end."""
    wl = uniform_workload(800, seed=11)
    result = run_hierarchical(
        wl,
        heterogeneous([8, 8], [1.0, 2.0], socket_counts=[2, 2]),
        inter="GSS+AWF-B+SS",
        approach="mpi+mpi",
        ppn=8,
        seed=4,
    )
    verify_schedule(result.subchunks, wl.n)
    assert result.parallel_time > 0


def test_openmp_three_level_adaptive_middle():
    """mpi+openmp carves global chunks across sockets with AWF-C: the
    middle calculator is fed per-socket compute times between outer
    grabs."""
    wl = uniform_workload(600, seed=12)
    log = []
    spec = HierarchicalSpec(
        levels=(LevelSpec.of("GSS"), _SpyLevelSpec("AWF-C", log),
                LevelSpec.of("SS"))
    )
    from repro.models import MpiOpenMpModel

    result = run_model(
        MpiOpenMpModel(), wl, homogeneous(2, 8, sockets_per_node=2),
        spec, ppn=8, seed=5,
    )
    verify_schedule(result.subchunks, wl.n)
    assert log, "outer worksharing never recorded socket compute times"
    assert {pe for pe, _, _ in log} <= {0, 1}
    assert all(dt > 0 for _, _, dt in log)
