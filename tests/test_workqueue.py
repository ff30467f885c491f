"""The shared tier-queue module: one carve rule for every engine.

Draining a freshly deposited chunk round-robin must give exactly the
serial unroll of the level's calculator, for every roster technique,
and the queue must ask the calculator once per sub-chunk it hands out
— never for an exhausted head, since adaptive calculators count every
draw.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IterationProfile, unroll
from repro.core.hierarchy import LevelSpec
from repro.core.techniques import TECHNIQUES
from repro.core.workqueue import TierQueue, WorkChunk

PROFILE = IterationProfile(mu=1e-3, sigma=3e-4)
ROSTER = sorted(TECHNIQUES) + ["ADAPT[ss,fac2,tss]"]


def drain(queue, p):
    """Take round-robin over ``p`` children until the queue is dry."""
    taken = []
    while True:
        child = len(taken) % p
        sub = queue.take(child)
        if sub is None:
            return taken
        _head, start, size, step = sub
        taken.append((step, start, size, child))


@given(
    name=st.sampled_from(ROSTER),
    n=st.integers(min_value=0, max_value=2000),
    p=st.integers(min_value=1, max_value=48),
    offset=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_draining_a_chunk_round_robin_is_the_serial_unroll(name, n, p, offset):
    level = LevelSpec.of(name, profile=PROFILE)
    queue = TierQueue(level, p)
    queue.deposit(0, offset, n)
    expected = [
        (c.step, offset + c.start, c.size, c.pe)
        for c in unroll(level.make_calculator(n, p), p)
    ]
    assert drain(queue, p) == expected
    assert queue.ranges == [] and not queue.drained


class _CountingCalc:
    """Calculator proxy counting ``size_at`` draws."""

    def __init__(self, inner):
        self._inner = inner
        self.draws = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def size_at(self, step, pe=None):
        self.draws += 1
        return self._inner.size_at(step, pe=pe)


@given(
    name=st.sampled_from(["AF", "AWF-B", "ADAPT", "ADAPT[ss,fac2,tss]"]),
    sizes=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=3),
    p=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_adaptive_calculator_is_asked_once_per_take(name, sizes, p):
    level = LevelSpec.of(name, profile=PROFILE)
    queue = TierQueue(level, p)
    calcs = []
    start = 0
    for size in sizes:
        chunk = queue.deposit(-1, start, size)
        chunk.calc = _CountingCalc(chunk.calc)
        calcs.append(chunk.calc)
        start += size
    taken = drain(queue, p)
    assert sum(size for _, _, size, _ in taken) == sum(sizes)
    assert sum(calc.draws for calc in calcs) == len(taken)
    # a dry queue asks nobody
    for child in range(p):
        assert queue.take(child) is None
    assert sum(calc.draws for calc in calcs) == len(taken)
    # nor does an exhausted chunk carved directly (a worksharing round,
    # the native root)
    chunk = WorkChunk(0, sizes[0], _CountingCalc(level.make_calculator(sizes[0], p)))
    carved = 0
    while chunk.carve(carved % p) is not None:
        carved += 1
    assert chunk.carve(0) is None and chunk.calc.draws == carved


def test_refill_marks_drained_and_strand_returns_the_remainders():
    queue = TierQueue(LevelSpec.of("SS"), 2)
    head, start, size, step = queue.refill(1, 5, 100, 10)
    assert (start, size, step) == (100, 1, 0) and head.src_step == 5
    queue.deposit(6, 200, 3)
    assert queue.strand() == [(5, 101, 9), (6, 200, 3)]
    assert queue.take(0) is None and not queue.drained
    assert queue.refill(0, -1, 0, 0) is None
    assert queue.drained
