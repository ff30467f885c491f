"""Roster-wide property harness (ISSUE 8, satellite 1).

One parametrized surface covering EVERY registered technique plus
configured ADAPT ladder instances:

* coverage / positivity / containment — whatever the loop size and PE
  count, every calculator yields positive chunks that tile ``[0, n)``
  exactly;
* memoised-array ≡ sequential equivalence — for deterministic
  calculators the NumPy fast path (``sequence()``, materialised once
  and memoised process-wide) must agree chunk-for-chunk with a fresh
  sequential ``_next_size`` unrolling, i.e. the dCC local-resolution
  arrays and the step-by-step protocol describe the same schedule;
* random depth-1..4 stacks — arbitrary ``+``-joined rosters driven
  through ``run_hierarchical`` still produce a verified schedule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IterationProfile,
    get_technique,
    unroll,
    verify_schedule,
)
from repro.core.techniques import TECHNIQUES
from repro.cluster.machine import homogeneous
from repro.api import run_hierarchical
from repro.workloads import uniform_workload

#: every registered name, plus configured selector ladders — the full
#: surface a user can spell in a spec.
LADDERS = (
    "ADAPT[ss,fac2]",
    "ADAPT[fac2,gss,tss]",
    "ADAPT[ss,fac2,gss,tss,window=6,dwell=2,improve=0.05]",
)
ROSTER = sorted(TECHNIQUES) + list(LADDERS)
DETERMINISTIC = sorted(
    name for name, t in TECHNIQUES.items()
    if not t.pe_dependent and not t.adaptive
)
#: stackable names for whole-run stacks: everything except the two
#: techniques that require an explicit a-priori profile at the level
#: spec (FSC, FAC) — nothing auto-fills those in a ``+``-joined string.
STACKABLE = sorted(
    name for name, t in TECHNIQUES.items() if not t.needs_profile
) + ["ADAPT[ss,fac2,tss]"]

sizes = st.integers(min_value=0, max_value=4000)
pes = st.integers(min_value=1, max_value=48)


def make(name, n, p):
    return get_technique(name).make(
        n, p, profile=IterationProfile(mu=1e-3, sigma=4e-4), weights=None
    )


@given(name=st.sampled_from(ROSTER), n=sizes, p=pes)
@settings(max_examples=300, deadline=None)
def test_roster_covers_positively_and_exactly(name, n, p):
    """Coverage + positivity + containment for the whole roster."""
    chunks = unroll(make(name, n, p))
    for chunk in chunks:
        assert chunk.size >= 1
        assert 0 <= chunk.start and chunk.start + chunk.size <= n
    verify_schedule(chunks, n)


@given(name=st.sampled_from(DETERMINISTIC), n=sizes, p=pes)
@settings(max_examples=300, deadline=None)
def test_memoised_array_matches_sequential_unroll(name, n, p):
    """The dCC fast path and the step protocol agree chunk-for-chunk."""
    fast = make(name, n, p).sequence()
    # reference: fresh calculator, sequential recurrence with the
    # base-class clamp — no arrays, no memo cache
    ref_calc = make(name, n, p)
    ref, total = [], 0
    while total < n:
        size = ref_calc._next_size(n - total, len(ref))
        size = max(1, min(int(size), n - total))
        ref.append(size)
        total += size
    assert fast == ref


@pytest.mark.parametrize("spelling", LADDERS)
def test_ladder_instances_cover(spelling):
    technique = get_technique(spelling)
    assert technique.name == spelling.replace("ADAPT[", "ADAPT[").strip()
    for n, p in ((0, 3), (1, 1), (977, 7), (4096, 16)):
        verify_schedule(unroll(technique.make(n, p)), n)


stacks = st.lists(st.sampled_from(STACKABLE), min_size=1, max_size=4)


@given(stack=stacks, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_random_stacks_schedule_exactly(stack, seed):
    """Any depth-1..4 roster stack produces a verified schedule."""
    wl = uniform_workload(120, seed=seed % 7)
    cluster = homogeneous(2, 4, sockets_per_node=2, numa_per_socket=2)
    result = run_hierarchical(
        wl,
        cluster,
        inter="+".join(stack),
        intra=None,
        approach="mpi+mpi",
        ppn=4,
        seed=seed,
    )
    verify_schedule(result.subchunks, wl.n)
    assert result.parallel_time > 0
