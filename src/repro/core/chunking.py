"""Chunks of loop iterations and schedule-correctness helpers.

A *chunk* is a half-open range ``[start, start+size)`` of loop-iteration
indices handed to one processing element at one scheduling step.  The
helpers here unroll a technique serially (ground truth for tests) and
verify the fundamental schedule invariants: full coverage of the
iteration space, no overlap, and positive sizes.

Conventions: chunks carry iteration indices and counts, never times
(simulated durations elsewhere are in seconds).  ``step`` is the grab
order at one scheduling level; ``pe`` is the processing element that
took the chunk: a worker rank, a node index at a hierarchical model's
inter-node level, or a thread id.

Executed chunks are recorded in a :class:`ChunkLog`: four ``int64``
columns ``(step, start, size, pe)`` in one flat array, appended inside
the event loop without building an object per chunk.  :class:`Chunk`
objects are materialised only when a caller reads the log.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.technique_base import ChunkCalculator


class ScheduleError(AssertionError):
    """A schedule violated coverage/overlap invariants."""


@dataclass(frozen=True)
class Chunk:
    """A scheduled unit of work.

    Attributes
    ----------
    step:
        The scheduling step at which this chunk was obtained (global
        ordering of grabs at one scheduling level).
    start, size:
        Half-open iteration range ``[start, start + size)``.
    pe:
        Processing element that obtained the chunk (worker rank or
        thread id), ``-1`` when not applicable (serial unrolling).
    """

    step: int
    start: int
    size: int
    pe: int = -1

    @property
    def end(self) -> int:
        """One past the last iteration, ``start + size``."""
        return self.start + self.size

    def __post_init__(self) -> None:
        if self.size < 0 or self.start < 0:
            raise ValueError(f"malformed chunk {self!r}")

    def __len__(self) -> int:
        return self.size

    def split(self, at: int) -> "tuple[Chunk, Chunk]":
        """Split into two chunks after ``at`` iterations (test helper)."""
        if not 0 <= at <= self.size:
            raise ValueError(f"split point {at} outside chunk of size {self.size}")
        left = Chunk(self.step, self.start, at, self.pe)
        right = Chunk(self.step, self.start + at, self.size - at, self.pe)
        return left, right


class ChunkLog(Sequence[Chunk]):
    """Append-only record of chunks, stored as ``int64`` columns.

    Each record is ``(step, start, size, pe)``, kept in one flat
    ``array('q')``; reading the log (``len``, iteration, indexing)
    builds fresh :class:`Chunk` objects in record order, with no
    cache.  ``==`` compares element-wise with any sequence, so an empty
    log equals ``[]``.
    """

    def __init__(self, chunks: Iterable[Chunk] = ()):
        self._data = array("q")
        for c in chunks:
            self.append(c.step, c.start, c.size, c.pe)

    def append(self, step: int, start: int, size: int, pe: int) -> None:
        """Record one chunk; a negative ``start`` or ``size`` raises the
        same ``ValueError`` as constructing the :class:`Chunk`."""
        if size < 0 or start < 0:
            Chunk(step, start, size, pe)  # raises "malformed chunk ..."
        self._data.extend((step, start, size, pe))

    def columns(self) -> np.ndarray:
        """An ``(n, 4)`` ``int64`` copy of the records, columns ``(step,
        start, size, pe)``.  A copy, not a view: an exported buffer
        would make the next :meth:`append` raise ``BufferError``."""
        return np.array(self._data, dtype=np.int64).reshape(-1, 4)

    def __len__(self) -> int:
        return len(self._data) // 4

    def __iter__(self) -> Iterator[Chunk]:
        fields = iter(self._data)
        # one iterator passed four times: each Chunk takes the next
        # four fields, in record order
        return map(Chunk, fields, fields, fields, fields)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("ChunkLog index out of range")
        return Chunk(*self._data[4 * i : 4 * i + 4])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChunkLog):
            return self._data == other._data
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"ChunkLog({list(self)!r})"


def unroll(calculator: "ChunkCalculator", round_robin_pes: Optional[int] = None) -> List[Chunk]:
    """Serially unroll a calculator into its complete chunk list.

    This emulates a perfectly serialised self-scheduling execution:
    step ``i`` is grabbed before step ``i+1``.  For techniques whose
    chunk size depends on the requesting PE (WF, AWF-*), PEs take turns
    round-robin over ``round_robin_pes`` (defaults to the calculator's
    ``p``).

    Returns chunks exactly covering ``[0, n)``.
    """
    p = round_robin_pes if round_robin_pes is not None else calculator.p
    chunks: List[Chunk] = []
    start = 0
    step = 0
    guard = 0
    while start < calculator.n:
        pe = step % p
        size = calculator.size_at(step, pe=pe)
        if size <= 0:
            raise ScheduleError(
                f"{calculator!r} returned size {size} at step {step} with "
                f"{calculator.n - start} iterations remaining"
            )
        size = min(size, calculator.n - start)
        chunks.append(Chunk(step=step, start=start, size=size, pe=pe))
        start += size
        step += 1
        guard += 1
        if guard > 2 * calculator.n + 16:
            raise ScheduleError(f"unroll did not terminate for {calculator!r}")
    return chunks


def verify_schedule(chunks: Iterable[Chunk], n: int) -> None:
    """Raise :class:`ScheduleError` unless chunks tile ``[0, n)`` exactly.

    ``chunks`` is a :class:`ChunkLog` or any iterable of :class:`Chunk`.
    They may arrive in any order (concurrent executions produce
    interleaved grabs); a stable sort by ``start`` orders them before
    checking.  The error names the first offending chunk in that order:
    a non-positive size, else a gap or overlap with its predecessor's
    end; a schedule without one must then end exactly at ``n``.
    """
    log = chunks if isinstance(chunks, ChunkLog) else ChunkLog(chunks)
    columns = log.columns()
    order = np.argsort(columns[:, 1], kind="stable")
    starts = columns[order, 1]
    ends = starts + columns[order, 2]
    # each chunk must start where its predecessor in start order ends
    expected = np.empty_like(starts)
    expected[:1] = 0
    expected[1:] = ends[:-1]
    bad = np.flatnonzero((ends <= starts) | (starts != expected))
    if bad.size:
        first = int(bad[0])
        chunk = log[int(order[first])]
        if chunk.size <= 0:
            raise ScheduleError(f"non-positive chunk {chunk}")
        cursor = int(expected[first])
        kind = "overlap" if chunk.start < cursor else "gap"
        raise ScheduleError(
            f"{kind} at iteration {min(cursor, chunk.start)}: "
            f"expected next start {cursor}, got {chunk}"
        )
    cursor = int(ends[-1]) if ends.size else 0
    if cursor != n:
        raise ScheduleError(f"schedule covers [0, {cursor}) but the loop has {n} iterations")
