"""Property-based tests (hypothesis) for the DLS technique calculators.

The invariants here are the load-bearing guarantees of the whole
system: whatever the loop size, PE count, profile, weights, or seed,
every technique must produce a positive, exactly-covering, terminating
chunk schedule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IterationProfile, get_technique, unroll, verify_schedule
from repro.core.technique_base import ceil_div
from repro.core.techniques import TECHNIQUES

DETERMINISTIC = sorted(
    name for name, t in TECHNIQUES.items()
    if not t.pe_dependent and not t.adaptive
)
ALL = sorted(TECHNIQUES)

sizes = st.integers(min_value=0, max_value=5000)
pes = st.integers(min_value=1, max_value=64)
profiles = st.builds(
    IterationProfile,
    mu=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    sigma=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    h=st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False),
)


def make(name, n, p, profile=None):
    return get_technique(name).make(
        n,
        p,
        profile=profile or IterationProfile(mu=1e-3, sigma=3e-4),
        weights=None,
    )


@given(name=st.sampled_from(ALL), n=sizes, p=pes)
@settings(max_examples=300, deadline=None)
def test_every_technique_covers_any_loop(name, n, p):
    calc = make(name, n, p)
    chunks = unroll(calc)
    verify_schedule(chunks, n)


@given(name=st.sampled_from(DETERMINISTIC), n=sizes, p=pes)
@settings(max_examples=200, deadline=None)
def test_deterministic_sequence_sums_to_n(name, n, p):
    calc = make(name, n, p)
    seq = calc.sequence()
    assert sum(seq) == n
    assert all(s >= 1 for s in seq)


@given(name=st.sampled_from(DETERMINISTIC), n=sizes, p=pes)
@settings(max_examples=200, deadline=None)
def test_start_at_equals_prefix_sums(name, n, p):
    calc = make(name, n, p)
    seq = calc.sequence()
    acc = 0
    for step, size in enumerate(seq):
        assert calc.start_at(step) == acc
        acc += size


@given(name=st.sampled_from(DETERMINISTIC), n=sizes, p=pes)
@settings(max_examples=150, deadline=None)
def test_size_at_is_idempotent_for_deterministic(name, n, p):
    calc = make(name, n, p)
    total = calc.total_steps()
    for step in range(0, min(total, 25)):
        first = calc.size_at(step)
        assert calc.size_at(step) == first


@given(n=st.integers(min_value=1, max_value=100000), p=pes)
@settings(max_examples=200, deadline=None)
def test_gss_first_chunk_and_monotonicity(n, p):
    seq = make("GSS", n, p).sequence()
    assert seq[0] == ceil_div(n, p)
    assert all(a >= b for a, b in zip(seq, seq[1:]))


@given(n=st.integers(min_value=1, max_value=100000), p=pes)
@settings(max_examples=200, deadline=None)
def test_fac2_batches_are_uniform_and_halving(n, p):
    seq = make("FAC2", n, p).sequence()
    # within every full batch of p chunks all sizes are equal
    for start in range(0, max(0, len(seq) - p), p):
        batch = seq[start : start + p]
        assert len(set(batch)) == 1


@given(n=st.integers(min_value=2, max_value=100000), p=pes)
@settings(max_examples=200, deadline=None)
def test_tss_linear_and_bounded(n, p):
    seq = make("TSS", n, p).sequence()
    first = ceil_div(n, 2 * p)
    assert seq[0] <= max(first, 1)
    assert min(seq) >= 1
    assert all(a >= b for a, b in zip(seq, seq[1:-1] or seq[1:]))


@given(n=sizes, p=pes, profile=profiles)
@settings(max_examples=150, deadline=None)
def test_fac_robust_to_any_profile(n, p, profile):
    calc = get_technique("FAC").make(n, p, profile=profile)
    verify_schedule(unroll(calc), n)


@given(n=sizes, p=pes, profile=profiles)
@settings(max_examples=150, deadline=None)
def test_fsc_and_tap_robust_to_any_profile(n, p, profile):
    for name in ("FSC", "TAP"):
        calc = get_technique(name).make(n, p, profile=profile)
        verify_schedule(unroll(calc), n)


@given(
    n=sizes,
    p=st.integers(min_value=1, max_value=16),
    raw=st.lists(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
        min_size=16,
        max_size=16,
    ),
)
@settings(max_examples=150, deadline=None)
def test_wf_covers_under_arbitrary_weights(n, p, raw):
    calc = get_technique("WF").make(n, p, weights=raw[:p])
    verify_schedule(unroll(calc), n)


@given(n=sizes, p=pes, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_rnd_covers_for_any_seed(n, p, seed):
    calc = get_technique("RND").make(n, p, seed=seed)
    verify_schedule(unroll(calc), n)


@given(
    name=st.sampled_from(["AWF-B", "AWF-C", "AWF-D", "AWF-E", "AF"]),
    n=sizes,
    p=st.integers(min_value=1, max_value=16),
    times=st.lists(
        st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_adaptive_cover_under_arbitrary_feedback(name, n, p, times):
    """Feeding adversarial timings must never break coverage."""
    calc = get_technique(name).make(n, p)
    chunks = []
    start = 0
    step = 0
    while start < n:
        pe = step % p
        size = calc.size_at(step, pe=pe)
        assert size >= 1
        size = min(size, n - start)
        chunks.append((start, size))
        calc.record(pe, size, compute_time=times[step % len(times)] * size,
                    overhead_time=times[(step + 1) % len(times)])
        start += size
        step += 1
    # coverage by construction; check contiguity
    cursor = 0
    for s, z in chunks:
        assert s == cursor
        cursor += z
    assert cursor == n
