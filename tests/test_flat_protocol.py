"""The one flat global-counter protocol behind mpi+mpi, flat-mpi and dCC.

``flat-mpi`` is a configuration of ``mpi+mpi``'s depth-1 path: it
schedules the root level of its stack over every rank and ignores the
deeper levels.  So ``flat-mpi`` on ``X+SS`` must run exactly like
``mpi+mpi`` on ``X`` — same parallel time to the bit, same event
count, same chunk logs and per-rank finish times, with and without
crash faults — for every root technique whose calculator ignores the
chunk-fetch wait.

The one intended difference is the ADAPT family: ``mpi+mpi`` feeds
each chunk's fetch wait to a listening root calculator and ``flat-mpi``
does not.  The pin below holds flat-mpi ADAPT to the results it gave
before the protocol was shared, so the difference cannot drift
silently either way.  Both cases held before the refactor too (they
are pins, not fixes).
"""

import hashlib

import pytest

from repro.api import run_hierarchical
from repro.cluster.machine import minihpc
from repro.core.techniques import TECHNIQUES
from repro.experiments.workloads import figure_workload
from repro.workloads import mandelbrot_workload

#: every registered root technique that a ``+``-joined stack can name
#: (FSC and FAC need an a-priori profile, WF explicit weights), minus
#: ADAPT, whose selector listens to the fetch wait
ROOTS = sorted(
    name for name, technique in TECHNIQUES.items()
    if not technique.needs_profile
    and not technique.needs_weights
    and name != "ADAPT"
)

FAULTS = (None, "crash:5@0.003,slow:2@0.001:0.5")


def _fingerprint(result):
    """Everything the flat protocol decides, as exact values."""
    return {
        "parallel_time": result.parallel_time.hex(),
        "n_events": result.n_events,
        "chunks": result.chunks._data.tobytes(),
        "subchunks": result.subchunks._data.tobytes(),
        "finish_times": [w.finish_time.hex() for w in result.metrics.workers],
    }


def test_roots_cover_the_roster():
    assert len(ROOTS) == 17 and "STATIC" in ROOTS  # pinned STATIC included


@pytest.mark.parametrize("faults", FAULTS, ids=("no-faults", "faults"))
@pytest.mark.parametrize("root", ROOTS)
def test_flat_mpi_on_x_plus_ss_is_mpi_mpi_on_x(root, faults):
    workload = mandelbrot_workload(width=32, height=32)
    cluster = minihpc(2, 4)
    common = dict(ppn=4, seed=1, faults=faults)
    flat = run_hierarchical(
        workload, cluster, inter=f"{root}+SS", approach="flat-mpi", **common
    )
    hier = run_hierarchical(workload, cluster, inter=root, approach="mpi+mpi", **common)
    assert _fingerprint(flat) == _fingerprint(hier)
    assert flat.counters["global_atomics"] == hier.counters["global_atomics"]
    if faults is not None:
        assert flat.counters["dead_ranks"] == hier.counters["dead_ranks"] == [5]


#: flat-mpi ADAPT at mandelbrot ``tiny`` on ``minihpc(2, 8)`` (seed 0,
#: default noise): parallel time, events, global atomics, sha256 prefix
#: of the sub-chunk log
ADAPT_PINS = {
    None: ("0x1.e83873a1e82bap-7", 29893, 8208, "6d426b48c8f6cc43"),
    "crash:5@0.004": ("0x1.01691836e7d77p-6", 30798, 8232, "7a41a46f0b627d01"),
}


@pytest.mark.parametrize("faults", sorted(ADAPT_PINS, key=str))
def test_flat_mpi_adapt_is_pinned(faults):
    """Flat-mpi's root ADAPT hears compute feedback only, never the
    fetch wait, so it coarsens on a different schedule than mpi+mpi's."""
    workload = figure_workload("mandelbrot", "tiny")
    result = run_hierarchical(
        workload, minihpc(2, 8), inter="ADAPT", approach="flat-mpi", faults=faults
    )
    got = (
        result.parallel_time.hex(),
        result.n_events,
        result.counters["global_atomics"],
        hashlib.sha256(result.subchunks._data.tobytes()).hexdigest()[:16],
    )
    assert got == ADAPT_PINS[faults]
    fed = run_hierarchical(
        workload, minihpc(2, 8), inter="ADAPT", approach="mpi+mpi", faults=faults
    )
    assert fed.n_events != result.n_events
