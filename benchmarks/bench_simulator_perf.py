"""Microbenchmarks of the simulation substrate itself.

These are classic pytest-benchmark measurements (many rounds) of the
hot paths every figure regeneration exercises: the event engine, the
shared-window lock under contention, remote atomics, the OpenMP
worksharing loop, and technique chunk calculation.  They exist so
performance regressions in the simulator show up independently of the
figure-level timings.
"""

import numpy as np

from repro.cluster.machine import homogeneous
from repro.core.techniques import get_technique
from repro.sim import Compute, Simulator
from repro.smpi import MpiWorld


def _run_engine(n_processes: int, n_steps: int) -> float:
    sim = Simulator()

    def proc():
        for _ in range(n_steps):
            yield Compute(1e-6)

    for _ in range(n_processes):
        sim.spawn(proc())
    return sim.run()


def test_engine_event_throughput(benchmark):
    """64 processes x 100 compute events each."""
    result = benchmark(_run_engine, 64, 100)
    assert result > 0


def _run_contended_lock() -> int:
    world = MpiWorld(Simulator(seed=1), homogeneous(1, 16), ppn=16)
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        for _ in range(20):
            yield from shm.lock(ctx)
            yield Compute(1e-6)
            yield shm.unlock(ctx)
            shm.release(ctx)

    world.run(main)
    return shm.n_acquisitions


def test_contended_window_lock(benchmark):
    """16 ranks x 20 exclusive lock cycles on one shared window."""
    acquisitions = benchmark(_run_contended_lock)
    assert acquisitions == 320


def _run_remote_atomics() -> int:
    world = MpiWorld(Simulator(seed=1), homogeneous(4, 8), ppn=8)
    win = world.create_window(0, {"step": 0})

    def main(ctx):
        for _ in range(25):
            yield from win.fetch_and_op(ctx, "step", 1)

    world.run(main)
    return win.peek("step")


def test_remote_atomic_throughput(benchmark):
    """32 ranks x 25 fetch_and_op on one hosted window."""
    total = benchmark(_run_remote_atomics)
    assert total == 800


def test_gss_chunk_calculation(benchmark):
    """Memoised serial-sequence unrolling for a large loop."""

    def calc():
        return get_technique("GSS").make(1_000_000, 64).total_steps()

    steps = benchmark(calc)
    assert steps > 100


def test_mandelbrot_cost_vector(benchmark):
    """Vectorised escape-count kernel, 128x128."""
    from repro.workloads.mandelbrot import escape_counts

    counts = benchmark.pedantic(
        escape_counts, args=(128, 128, 256), rounds=3, iterations=1
    )
    assert counts.shape == (128, 128)
    assert counts.max() == 256
