"""Unit tests for the DLS technique calculators (repro.core.techniques)."""

import math

import pytest

from repro.core import (
    IterationProfile,
    TechniqueError,
    get_technique,
    list_techniques,
    unroll,
    verify_schedule,
)
from repro.core.chunking import Chunk, ScheduleError
from repro.core.techniques import (
    INTEL_OPENMP_SUPPORTED,
    PAPER_TECHNIQUES,
    TECHNIQUES,
)

PROFILE = IterationProfile(mu=1.0, sigma=0.3, h=1e-6)
ALL_NAMES = sorted(TECHNIQUES)


def make_calc(name, n, p):
    tech = get_technique(name)
    return tech.make(n, p, profile=PROFILE, weights=None)


# ---------------------------------------------------------------------------
# registry and metadata
# ---------------------------------------------------------------------------


def test_registry_contains_paper_techniques():
    for name in PAPER_TECHNIQUES:
        assert name in TECHNIQUES


def test_get_technique_case_insensitive():
    assert get_technique("gss").name == "GSS"
    assert get_technique(" fac2 ").name == "FAC2"
    assert get_technique("mfsc").name == "mFSC"


def test_get_technique_unknown_raises():
    with pytest.raises(TechniqueError, match="unknown DLS technique"):
        get_technique("nope")


def test_table1_openmp_clause_mapping():
    """The paper's Table 1: STATIC/SS/GSS map onto OpenMP clauses."""
    assert get_technique("STATIC").openmp_clause == "schedule(static)"
    assert get_technique("SS").openmp_clause == "schedule(dynamic,1)"
    assert get_technique("GSS").openmp_clause == "schedule(guided,1)"
    # TSS/FAC2 exist only via the LaPeSD-libGOMP extension (paper Sec. 2)
    assert get_technique("TSS").openmp_clause is None
    assert get_technique("TSS").openmp_extension_clause is not None
    assert get_technique("FAC2").openmp_clause is None
    assert get_technique("FAC2").openmp_extension_clause is not None


def test_intel_supported_subset():
    assert set(INTEL_OPENMP_SUPPORTED) == {"STATIC", "SS", "GSS"}


def test_list_techniques_rows_complete():
    rows = list_techniques()
    names = {row["name"] for row in rows}
    assert names == set(TECHNIQUES)
    for row in rows:
        assert row["description"]


# ---------------------------------------------------------------------------
# coverage invariants for every technique
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize(
    "n,p",
    [(1, 1), (1, 4), (7, 3), (100, 4), (1000, 16), (1024, 8), (999, 7)],
)
def test_unroll_covers_iteration_space(name, n, p):
    calc = make_calc(name, n, p)
    chunks = unroll(calc)
    verify_schedule(chunks, n)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_zero_iterations_yields_no_chunks(name):
    calc = make_calc(name, 0, 4)
    assert calc.size_at(0, pe=0) == 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_sizes_always_positive_until_exhaustion(name):
    calc = make_calc(name, 500, 5)
    step = 0
    total = 0
    while total < 500:
        size = calc.size_at(step, pe=step % 5)
        assert size >= 1
        total += min(size, 500 - total)
        step += 1
    assert total == 500


# ---------------------------------------------------------------------------
# technique-specific formulas
# ---------------------------------------------------------------------------


def test_static_chunk_sizes():
    calc = make_calc("STATIC", 100, 4)
    assert calc.sequence() == [25, 25, 25, 25]
    assert calc.total_steps() == 4


def test_static_uneven_division():
    calc = make_calc("STATIC", 10, 3)
    assert calc.sequence() == [4, 4, 2]


def test_ss_all_ones():
    calc = make_calc("SS", 12, 4)
    assert calc.sequence() == [1] * 12
    assert calc.total_steps() == 12
    # O(1) paths
    assert calc.size_at(11) == 1
    assert calc.size_at(12) == 0
    assert calc.start_at(5) == 5


def test_gss_halving_pattern():
    # classic GSS example: N=100, P=4 -> 25, 19, 15, 11, 8, 6, 5, 3, 3, 2, 1x3
    calc = make_calc("GSS", 100, 4)
    seq = calc.sequence()
    assert seq[0] == 25
    assert seq[1] == math.ceil(75 / 4) == 19
    assert sum(seq) == 100
    # strictly non-increasing
    assert all(a >= b for a, b in zip(seq, seq[1:]))


def test_gss_chunk_is_ceil_remaining_over_p():
    calc = make_calc("GSS", 1000, 8)
    seq = calc.sequence()
    remaining = 1000
    for size in seq:
        expected = -(-remaining // 8)
        assert size == min(expected, remaining)
        remaining -= size
    assert remaining == 0


def test_tss_linear_decrement():
    n, p = 1000, 4
    calc = make_calc("TSS", n, p)
    seq = calc.sequence()
    first = math.ceil(n / (2 * p))  # 125
    assert seq[0] == first
    # linearly decreasing by ~delta each step
    diffs = [a - b for a, b in zip(seq, seq[1:-1] or seq[1:])]
    assert all(d >= 0 for d in diffs)
    # delta should be roughly constant (+-1 from rounding)
    if len(diffs) > 2:
        assert max(diffs) - min(diffs) <= 1
    assert sum(seq) == n


def test_tss_last_chunk_at_least_one():
    calc = make_calc("TSS", 50, 8)
    assert all(s >= 1 for s in calc.sequence())


def test_fac2_halves_each_batch():
    n, p = 1024, 4
    calc = make_calc("FAC2", n, p)
    seq = calc.sequence()
    # first batch: ceil(1024/8) = 128 per chunk, 4 chunks
    assert seq[:4] == [128, 128, 128, 128]
    # second batch: remaining 512 -> 64 each
    assert seq[4:8] == [64, 64, 64, 64]
    assert sum(seq) == n


def test_fac2_initial_chunk_is_half_of_gss():
    """Paper Sec. 2: 'The initial chunk size of FAC2 is half of the
    initial chunk size of GSS.'"""
    n, p = 4096, 8
    fac2 = make_calc("FAC2", n, p).sequence()[0]
    gss = make_calc("GSS", n, p).sequence()[0]
    assert fac2 == gss / 2


def test_fac_with_zero_sigma_first_batch_is_static_like():
    prof = IterationProfile(mu=1.0, sigma=0.0)
    calc = get_technique("FAC").make(1000, 4, profile=prof)
    seq = calc.sequence()
    # x -> 1 for batch 0: chunk = N/P
    assert seq[0] == 250


def test_fac_larger_sigma_gives_smaller_first_batch():
    small = get_technique("FAC").make(
        10000, 8, profile=IterationProfile(mu=1.0, sigma=0.1)
    )
    large = get_technique("FAC").make(
        10000, 8, profile=IterationProfile(mu=1.0, sigma=2.0)
    )
    assert large.sequence()[0] < small.sequence()[0]


def test_fac_requires_profile():
    with pytest.raises(TechniqueError, match="IterationProfile"):
        get_technique("FAC").make(100, 4)


def test_fac_batches_have_equal_chunks():
    calc = get_technique("FAC").make(5000, 5, profile=PROFILE)
    seq = calc.sequence()
    for batch_start in range(0, len(seq) - 5, 5):
        batch = seq[batch_start : batch_start + 5]
        assert len(set(batch)) == 1


def test_tfss_batch_means_of_tss():
    n, p = 2000, 4
    tss = make_calc("TSS", n, p)
    tfss = make_calc("TFSS", n, p)
    tss_seq = tss.sequence()
    tfss_seq = tfss.sequence()
    # first TFSS batch chunk ~ mean of first p TSS chunks
    expected = round(sum(tss_seq[:p]) / p)
    assert abs(tfss_seq[0] - expected) <= 1


def test_fsc_formula():
    n, p = 100000, 10
    prof = IterationProfile(mu=1e-3, sigma=2e-4, h=1e-5)
    calc = get_technique("FSC").make(n, p, profile=prof)
    expected = (
        (math.sqrt(2) * n * prof.h) / (prof.sigma * p * math.sqrt(math.log(p)))
    ) ** (2 / 3)
    assert calc.sequence()[0] == math.ceil(expected)


def test_fsc_zero_sigma_falls_back_to_static():
    prof = IterationProfile(mu=1.0, sigma=0.0)
    calc = get_technique("FSC").make(100, 4, profile=prof)
    assert calc.sequence()[0] == 25


def test_mfsc_fixed_and_profiling_free():
    calc = get_technique("mFSC").make(4096, 8, weights=None)
    seq = calc.sequence()
    assert len(set(seq[:-1])) == 1  # fixed size except the clipped tail
    assert sum(seq) == 4096


def test_tap_smaller_than_gss():
    """Tapering subtracts a variance margin from the GSS chunk."""
    n, p = 10000, 8
    prof = IterationProfile(mu=1.0, sigma=0.5)
    tap = get_technique("TAP").make(n, p, profile=prof)
    gss = make_calc("GSS", n, p)
    assert tap.size_at(0) < gss.size_at(0)
    # size_at consumes work (scheduled-count protocol) — unroll fresh
    fresh = get_technique("TAP").make(n, p, profile=prof)
    verify_schedule(unroll(fresh), n)


def test_tap_estimates_variance_at_runtime():
    """TAP's margin follows record() feedback: reporting highly variable
    iteration times shrinks later chunks below the zero-variance run."""
    n, p = 100000, 8
    noisy = get_technique("TAP").make(n, p)
    flat = get_technique("TAP").make(n, p)
    for step, times in ((0, 1e-4), (1, 9e-3)):
        size = noisy.size_at(step)
        noisy.record(0, size, compute_time=times * size)
        size_f = flat.size_at(step)
        flat.record(0, size_f, compute_time=1e-4 * size_f)
    assert noisy.cov > flat.cov == 0.0
    assert noisy.size_at(2) < flat.size_at(2)


def test_wf_respects_weights():
    weights = [2.0, 1.0, 1.0, 1.0]  # PE0 twice as fast
    calc = get_technique("WF").make(1000, 4, weights=weights)
    s0 = calc.size_at(0, pe=0)
    calc2 = get_technique("WF").make(1000, 4, weights=weights)
    s1 = calc2.size_at(0, pe=1)
    assert s0 > s1
    # ratio approximately the weight ratio (ceil effects aside)
    assert s0 / s1 == pytest.approx(2.0, rel=0.1)


def test_wf_weight_validation():
    with pytest.raises(TechniqueError, match="shape"):
        get_technique("WF").make(100, 4, weights=[1.0, 2.0])
    with pytest.raises(TechniqueError, match="positive"):
        get_technique("WF").make(100, 4, weights=[1.0, -1.0, 1.0, 1.0])


def test_wf_requires_pe_argument():
    calc = get_technique("WF").make(100, 4, weights=None)
    with pytest.raises(TechniqueError, match="PE id"):
        calc.size_at(0)


def test_awf_b_adapts_weights_from_feedback():
    calc = get_technique("AWF-B").make(100000, 4)
    # grab a first batch, report PE0 as 4x faster than the others
    for pe in range(4):
        size = calc.size_at(pe, pe=pe)
        time = size * (0.25 if pe == 0 else 1.0)
        calc.record(pe, size, compute_time=time)
    # after a full batch the weights refresh
    assert calc.weights[0] > calc.weights[1]
    s_fast = calc.size_at(4, pe=0)
    calc2 = get_technique("AWF-B").make(100000, 4)
    for pe in range(4):
        size = calc2.size_at(pe, pe=pe)
        calc2.record(pe, size, compute_time=float(size))
    s_nominal = calc2.size_at(4, pe=0)
    assert s_fast > s_nominal


def test_awf_c_adapts_every_chunk():
    calc = get_technique("AWF-C").make(100000, 4)
    s0 = calc.size_at(0, pe=0)
    calc.record(0, s0, compute_time=s0 * 0.1)  # PE0 fast
    s1 = calc.size_at(1, pe=1)
    calc.record(1, s1, compute_time=s1 * 1.0)  # PE1 nominal
    # variant C refreshes after every chunk: two records are enough to
    # skew the weights (B would wait for a full batch of p=4 grabs)
    assert calc.weights[0] > calc.weights[1]


def test_awf_d_includes_overhead_time():
    calc_d = get_technique("AWF-D").make(100000, 4)
    calc_b = get_technique("AWF-B").make(100000, 4)
    for pe in range(4):
        for calc in (calc_d, calc_b):
            size = calc.size_at(pe, pe=pe)
            calc.record(pe, size, compute_time=float(size), overhead_time=float(size))
    # D counts overhead -> sees PE rates as half of what B sees; weights
    # stay uniform in both cases but the recorded times differ
    assert calc_d._time.sum() == pytest.approx(2 * calc_b._time.sum())


def test_af_bootstrap_then_adapts():
    calc = get_technique("AF").make(100000, 4)
    # bootstrap: first grabs use the FAC2 rule
    s = calc.size_at(0, pe=0)
    assert s == math.ceil(100000 / 8)
    # feed two chunks with low variance -> larger confident chunks
    calc.record(0, 100, compute_time=100.0)
    calc.record(0, 100, compute_time=100.0)
    remaining_before = calc.n - calc.scheduled
    s2 = calc.size_at(1, pe=0)
    # zero observed variance -> b=0 -> x=2 -> FAC2-like half split
    assert s2 == math.ceil(remaining_before / 8)


def test_af_high_variance_gives_smaller_chunks():
    lo = get_technique("AF").make(100000, 4)
    hi = get_technique("AF").make(100000, 4)
    for calc, times in ((lo, (1.0, 1.0)), (hi, (0.2, 1.8))):
        calc.size_at(0, pe=0)
        calc.record(0, 1, compute_time=times[0])
        calc.record(0, 1, compute_time=times[1])
    assert hi.size_at(1, pe=0) < lo.size_at(1, pe=0)


def test_rnd_is_seeded_reproducible_and_bounded():
    n, p = 10000, 4
    a = get_technique("RND").make(n, p, seed=42)
    b = get_technique("RND").make(n, p, seed=42)
    assert a.sequence() == b.sequence()
    low = max(1, n // (100 * p))
    high = math.ceil(n / (2 * p))
    # every chunk except a possibly clipped tail is within the bounds
    assert all(low <= s <= high for s in a.sequence()[:-1])
    assert sum(a.sequence()) == n


def test_rnd_is_deterministic_given_the_spec():
    """The sequence derives from (n, p, seed) alone: different seeds
    give different sequences."""
    n, p = 10000, 4
    base = get_technique("RND").make(n, p)
    assert base.deterministic
    other_seed = get_technique("RND").make(n, p, seed=7)
    assert other_seed.sequence() != base.sequence()
    # start_at/step_of work like any deterministic technique (dCC path)
    assert base.start_at(0) == 0
    assert base.step_of(base.sequence()[0]) == 1


# ---------------------------------------------------------------------------
# calculator machinery
# ---------------------------------------------------------------------------


def test_start_at_matches_prefix_sums():
    calc = make_calc("GSS", 1000, 8)
    seq = calc.sequence()
    start = 0
    for step, size in enumerate(seq):
        assert calc.start_at(step) == start
        start += size


def test_start_at_rejected_for_adaptive():
    calc = get_technique("AWF-B").make(100, 4)
    with pytest.raises(TechniqueError, match="adaptive"):
        calc.start_at(0)


def test_negative_step_rejected():
    calc = make_calc("GSS", 100, 4)
    with pytest.raises(TechniqueError, match="negative"):
        calc.size_at(-1)


def test_size_beyond_exhaustion_is_zero():
    calc = make_calc("GSS", 100, 4)
    total = calc.total_steps()
    assert calc.size_at(total) == 0
    assert calc.size_at(total + 5) == 0


def test_invalid_construction():
    with pytest.raises(TechniqueError):
        get_technique("GSS").make(-1, 4)
    with pytest.raises(TechniqueError):
        get_technique("GSS").make(100, 0)


# ---------------------------------------------------------------------------
# chunk helpers
# ---------------------------------------------------------------------------


def test_chunk_basics():
    c = Chunk(step=0, start=10, size=5)
    assert c.end == 15
    assert len(c) == 5
    left, right = c.split(2)
    assert (left.start, left.size) == (10, 2)
    assert (right.start, right.size) == (12, 3)


def test_chunk_split_bounds():
    c = Chunk(step=0, start=0, size=5)
    with pytest.raises(ValueError):
        c.split(6)


def test_verify_schedule_detects_gap():
    chunks = [Chunk(0, 0, 5), Chunk(1, 6, 4)]
    with pytest.raises(ScheduleError, match="gap"):
        verify_schedule(chunks, 10)


def test_verify_schedule_detects_overlap():
    chunks = [Chunk(0, 0, 5), Chunk(1, 4, 6)]
    with pytest.raises(ScheduleError, match="overlap"):
        verify_schedule(chunks, 10)


def test_verify_schedule_detects_short_coverage():
    chunks = [Chunk(0, 0, 5)]
    with pytest.raises(ScheduleError, match="covers"):
        verify_schedule(chunks, 10)


def test_verify_schedule_accepts_out_of_order():
    chunks = [Chunk(1, 5, 5), Chunk(0, 0, 5)]
    verify_schedule(chunks, 10)


# ---------------------------------------------------------------------------
# memoised sequence materialisation
# ---------------------------------------------------------------------------
def test_sequence_memoised_across_calculators():
    """Two calculators over the same (technique, n, p) share one
    materialised sequence array (the figure-sweep hot path)."""
    from repro.core.technique_base import clear_sequence_cache

    clear_sequence_cache()
    a = get_technique("GSS").make(10_000, 16)
    b = get_technique("GSS").make(10_000, 16)
    assert a.sequence() == b.sequence()
    a.total_steps()
    b.total_steps()
    assert a._sizes_arr is b._sizes_arr  # shared from the global memo


def test_memoised_sequence_profile_sensitive():
    from repro.core import IterationProfile

    p1 = IterationProfile(mu=1.0, sigma=0.5)
    p2 = IterationProfile(mu=1.0, sigma=2.0)
    a = get_technique("FAC").make(10_000, 8, profile=p1)
    b = get_technique("FAC").make(10_000, 8, profile=p2)
    assert a.sequence() != b.sequence()
    sum_a, sum_b = sum(a.sequence()), sum(b.sequence())
    assert sum_a == sum_b == 10_000


def test_step_of_inverts_start_at():
    calc = get_technique("TSS").make(5_000, 8)
    for step in range(calc.total_steps()):
        start = calc.start_at(step)
        assert calc.step_of(start) == step
        end = start + calc.size_at(step) - 1
        assert calc.step_of(end) == step
    with pytest.raises(TechniqueError):
        calc.step_of(5_000)


def test_step_of_rejects_adaptive():
    calc = get_technique("AF").make(100, 4)
    with pytest.raises(TechniqueError, match="undefined"):
        calc.step_of(0)
