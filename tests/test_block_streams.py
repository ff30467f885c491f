"""Block-drawn RNG streams equal sequential scalar draws, bit for bit.

The scalar engine draws per-chunk jitter and lock-poll waits in blocks
through :meth:`repro.sim.engine.Simulator.stream` instead of one NumPy
call per value.  That is only sound if every value a consumer sees is
the value the old scalar draw would have produced, in the same order,
whatever the block boundaries and however consumers of one stream
interleave.  These tests pin exactly that, plus the one floating-point
assumption behind the jitter blocks (``np.exp`` on an array equals
``np.exp`` on each scalar) and the guard that keeps a stream from being
drawn both buffered and raw.
"""

import numpy as np
import pytest

from repro.api import run_hierarchical
from repro.cluster.costs import DEFAULT_COSTS
from repro.cluster.machine import homogeneous
from repro.cluster.noise import HARSH_NOISE, MILD_NOISE, NO_NOISE, jitter_block
from repro.sim.engine import STREAM_BLOCK, Simulator
from repro.smpi.shm import poll_wait_block
from repro.smpi.world import MpiWorld
from repro.workloads.synthetic import uniform_workload

#: values per stream: enough to cross hundreds of block boundaries
N_VALUES = 100_003


def _interleaved(first, second, n):
    """Draw ``n`` values alternating between two consumers of one stream
    in an irregular pattern (runs of 1-7 draws each), in draw order."""
    values = []
    turn = 0
    while len(values) < n:
        consumer = first if turn % 2 == 0 else second
        for _ in range(min(1 + (turn * 5) % 7, n - len(values))):
            values.append(consumer())
        turn += 1
    return values


@pytest.mark.parametrize("noise", [MILD_NOISE, HARSH_NOISE], ids=lambda n: n.seed_tag)
def test_chunk_jitter_blocks_equal_sequential_scalar_draws(noise):
    sim = Simulator(seed=11)
    first = noise.jitter_source(sim)
    second = noise.jitter_source(sim)
    assert first is second  # one buffer per stream, however many consumers
    blocked = _interleaved(first, second, N_VALUES)

    reference = Simulator(seed=11).rng(f"chunk-jitter.{noise.seed_tag}")
    scalar = [noise.chunk_jitter(reference) for _ in range(N_VALUES)]
    assert N_VALUES > 100 * STREAM_BLOCK
    assert blocked == scalar
    assert all(type(value) is float for value in blocked[:STREAM_BLOCK + 1])


def test_poll_wait_blocks_equal_sequential_scalar_draws():
    sim = Simulator(seed=5)
    world = MpiWorld(sim, homogeneous(2, 4), costs=DEFAULT_COSTS)
    window = world.create_shared_window(1, {})
    interval = DEFAULT_COSTS.mpi.shm_poll_interval
    # a second consumer of the same stream, as another layer would ask
    other = sim.stream("shm-lockpoll.node1", poll_wait_block, interval)
    assert other is window.next_poll_wait
    blocked = _interleaved(window.next_poll_wait, other, N_VALUES)

    reference = Simulator(seed=5).rng("shm-lockpoll.node1")
    scalar = [interval * float(reference.uniform(0.5, 1.5)) for _ in range(N_VALUES)]
    assert blocked == scalar


def test_np_exp_on_a_block_equals_np_exp_per_scalar():
    rng = np.random.default_rng(20240611)
    for sigma in (0.005, 0.01, 0.15, 1.0):
        x = rng.normal(0.0, sigma, 50_000)
        block = np.exp(x).tolist()
        scalar = [float(np.exp(v)) for v in x]
        mismatches = sum(a != b for a, b in zip(block, scalar))
        assert mismatches == 0, (
            f"np.exp on an array differs from np.exp on scalars for "
            f"{mismatches} of {x.size} normal(0, {sigma}) arguments on this "
            f"NumPy build/CPU: block-drawn chunk jitter would no longer "
            f"reproduce the scalar draws (and the goldens would drift)"
        )
    # and jitter_block is exactly that: exp of the stream's normal draws
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    assert jitter_block(a, 0.01, 1000).tolist() == [
        float(np.exp(b.normal(0.0, 0.01))) for _ in range(1000)
    ]


def test_no_noise_run_never_creates_a_jitter_stream(monkeypatch):
    created = []
    new_rng = Simulator._new_rng

    def recording(self, stream):
        created.append(stream)
        return new_rng(self, stream)

    monkeypatch.setattr(Simulator, "_new_rng", recording)
    workload = uniform_workload(400, 1e-5, 5e-5, seed=1)
    cluster = homogeneous(2, 4)
    for engine in ("scalar", "cohort"):
        run_hierarchical(
            workload, cluster, inter="GSS+SS", noise=NO_NOISE, engine=engine
        )
    assert created, "the recorder saw no stream at all"
    assert not [name for name in created if name.startswith("chunk-jitter.")]

    created.clear()
    run_hierarchical(workload, cluster, inter="GSS+SS", noise=MILD_NOISE)
    assert "chunk-jitter.mild" in created  # the recorder does see it


def test_a_stream_is_either_buffered_or_raw():
    sim = Simulator(seed=0)
    sim.stream("s", poll_wait_block, 1.0)
    with pytest.raises(ValueError, match="buffered"):
        sim.rng("s")
    with pytest.raises(ValueError, match="another draw"):
        sim.stream("s", poll_wait_block, 2.0)
    with pytest.raises(ValueError, match="another draw"):
        sim.stream("s", jitter_block, 1.0)
    sim.rng("r")
    with pytest.raises(ValueError, match="unbuffered"):
        sim.stream("r", poll_wait_block, 1.0)
