"""Pins on :func:`repro.core.chunking.verify_schedule`'s verdicts.

Each case is a chunk sequence and a loop size; the expected value is
the exact :class:`ScheduleError` message (``None`` for a valid
schedule).  The literals were captured from the original per-chunk
Python loop, so any rewrite must report the same first offending chunk
in stable start order: a non-positive size is reported before a gap or
overlap at the same chunk, and the coverage check comes last.  Every
case is fed as a list of :class:`Chunk`, as a one-shot generator and as
a :class:`ChunkLog`.
"""

from __future__ import annotations

import pytest

from repro.core.chunking import Chunk, ChunkLog, ScheduleError, verify_schedule

C = Chunk

CASES = {
    "valid-unsorted": ([C(2, 7, 3, 1), C(0, 0, 4, 0), C(1, 4, 3, 2)], 10, None),
    "gap": (
        [C(0, 0, 5, 0), C(1, 7, 3, 1)],
        10,
        "gap at iteration 5: expected next start 5, "
        "got Chunk(step=1, start=7, size=3, pe=1)",
    ),
    "overlap": (
        [C(0, 0, 5, 0), C(1, 3, 7, 1)],
        10,
        "overlap at iteration 3: expected next start 5, "
        "got Chunk(step=1, start=3, size=7, pe=1)",
    ),
    "zero-size": (
        [C(0, 0, 5, 0), C(1, 5, 0, 1), C(2, 5, 5, 0)],
        10,
        "non-positive chunk Chunk(step=1, start=5, size=0, pe=1)",
    ),
    "short-coverage": (
        [C(0, 0, 4, 0), C(1, 4, 2, 1)],
        10,
        "schedule covers [0, 6) but the loop has 10 iterations",
    ),
    "over-coverage": (
        [C(0, 0, 6, 0), C(1, 6, 6, 1)],
        10,
        "schedule covers [0, 12) but the loop has 10 iterations",
    ),
    "empty": ([], 10, "schedule covers [0, 0) but the loop has 10 iterations"),
    "zero-and-misplaced": (
        [C(0, 0, 5, 0), C(1, 8, 0, 1), C(2, 5, 5, 2)],
        10,
        "non-positive chunk Chunk(step=1, start=8, size=0, pe=1)",
    ),
    "equal-starts-in-record-order": (
        [C(0, 0, 5, 0), C(1, 5, 3, 1), C(2, 5, 5, 2)],
        10,
        "overlap at iteration 5: expected next start 8, "
        "got Chunk(step=2, start=5, size=5, pe=2)",
    ),
    "equal-starts-zero-first": (
        [C(0, 0, 5, 0), C(2, 5, 0, 2), C(1, 5, 5, 1)],
        10,
        "non-positive chunk Chunk(step=2, start=5, size=0, pe=2)",
    ),
}


def _as_log(chunks):
    log = ChunkLog()
    for c in chunks:
        log.append(c.step, c.start, c.size, c.pe)
    return log


FEEDS = {
    "list": list,
    "generator": lambda chunks: (c for c in chunks),
    "chunk-log": _as_log,
}


@pytest.mark.parametrize("feed", sorted(FEEDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_schedule_message_is_pinned(case, feed):
    chunks, n, expected = CASES[case]
    fed = FEEDS[feed](chunks)
    if expected is None:
        verify_schedule(fed, n)
        return
    with pytest.raises(ScheduleError) as info:
        verify_schedule(fed, n)
    assert str(info.value) == expected
