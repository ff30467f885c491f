"""The tier-queue protocol of hierarchical self-scheduling, engine-free.

The paper's protocol (Sec. 3, Fig. 1) is one rule applied at every
tier: a worker locks its tier's queue and carves a sub-chunk off the
head chunk with the level's technique; if the queue is dry it refills
it from the parent tier while it holds the lock, and the parent's own
refill climbs up to the global queue.  Every engine — the scalar
simulator (:mod:`repro.models.mpi_mpi`), the cohort engine
(:mod:`repro.sim.cohorts`), the nested OpenMP rounds
(:mod:`repro.models.mpi_openmp`) and the real-thread runner
(:mod:`repro.native.runner`) — carves through this module and keeps
only its own locking and pricing.  The tree of tier queues is the
bubble hierarchy of Thibault (arXiv cs/0506097): one run queue per
machine tier, a dry child queue pulling work down from its parent.

Nothing here touches a simulator, a clock or a lock: callers hold
whatever lock guards a queue and charge whatever simulated seconds a
step costs.  Conventions: ranges are loop-iteration indices ``[start,
start + size)``; ``step`` counts the sub-chunks carved from one chunk
(the calculator's scheduling step); ``pe``/``child`` is the taker's
index among the queue's children — a node index at the inter-node
tier, a node-, socket- or NUMA-local rank below it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.technique_base import ChunkCalculator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hierarchy import LevelSpec

#: ``(calculator, pe)`` links from a chunk's immediate parent level up
#: to the root whose calculators listen to runtime feedback
Ancestors = Tuple[Tuple[ChunkCalculator, int], ...]


class WorkChunk:
    """One chunk ``[start, start + size)`` carved into sub-chunks by ``calc``.

    ``src_step`` is the parent level's scheduling step that produced
    the chunk (-1 when none did); ``ancestors`` its feedback chain.
    """

    __slots__ = ("start", "size", "calc", "src_step", "ancestors", "taken", "local_step")

    def __init__(
        self,
        start: int,
        size: int,
        calc: ChunkCalculator,
        src_step: int = -1,
        ancestors: Ancestors = (),
    ):
        self.start = start
        self.size = size
        self.calc = calc
        self.src_step = src_step
        self.ancestors = ancestors
        #: iterations carved so far
        self.taken = 0
        #: the step of the next sub-chunk
        self.local_step = 0

    @property
    def remaining(self) -> int:
        """Iterations not carved yet."""
        return self.size - self.taken

    def carve(self, pe: int) -> Optional[Tuple[int, int, int]]:
        """Carve the next sub-chunk for ``pe``: ``(start, size, step)``.

        None when nothing is left — without asking the calculator, since
        adaptive calculators count every draw — or when the calculator
        refuses (a size of 0 or less).  A size beyond the remainder is
        clamped to it.
        """
        remaining = self.size - self.taken
        if remaining <= 0:
            return None
        step = self.local_step
        size = min(self.calc.size_at(step, pe=pe), remaining)
        if size <= 0:
            return None
        start = self.start + self.taken
        self.taken += size
        self.local_step = step + 1
        return start, size, step


class TierQueue:
    """One tier group's FIFO of deposited chunks.

    ``spec`` carves every deposit over ``n_children`` takers;
    ``parent`` is the queue one tier up (None when the parent is the
    root) and ``parent_pe`` this queue's child index within it.
    ``drained`` records that the parent had no more work, so no refill
    will arrive until recovery re-deposits into the tree.
    """

    def __init__(
        self,
        spec: "LevelSpec",
        n_children: int,
        parent: "Optional[TierQueue]" = None,
        parent_pe: int = 0,
        chunk_overhead: Optional[float] = None,
    ):
        self.spec = spec
        self.n_children = n_children
        self.parent = parent
        self.parent_pe = parent_pe
        self.chunk_overhead = chunk_overhead
        self.ranges: List[WorkChunk] = []
        self.drained = False

    def deposit(
        self, src_step: int, start: int, size: int, ancestors: Ancestors = ()
    ) -> WorkChunk:
        """Queue a chunk carved by the parent level, with a fresh calculator.

        Only the listening links of ``ancestors`` are kept, so a
        per-sub-chunk feedback loop visits no calculator that ignores it.
        """
        chunk = WorkChunk(
            start,
            size,
            self.spec.make_calculator(
                size, self.n_children, chunk_overhead=self.chunk_overhead
            ),
            src_step,
            tuple(link for link in ancestors if link[0].listens),
        )
        self.ranges.append(chunk)
        return chunk

    def take(self, child: int) -> Optional[Tuple[WorkChunk, int, int, int]]:
        """Take the next sub-chunk: ``(head, start, size, step)``, or None
        when the queue is dry.

        A head is popped as soon as it is exhausted or refuses.  ``step``
        is returned because ``head.local_step`` keeps advancing as other
        children take from the same head.
        """
        ranges = self.ranges
        while ranges:
            head = ranges[0]
            sub = head.carve(child)
            if sub is not None:
                if head.taken == head.size:
                    ranges.pop(0)
                return (head,) + sub
            ranges.pop(0)
        return None

    def refill(
        self, child: int, src_step: int, start: int, size: int,
        ancestors: Ancestors = (),
    ) -> Optional[Tuple[WorkChunk, int, int, int]]:
        """The dry-queue refill: deposit the parent's fetch and take from
        it, or mark the queue drained when the fetch came back empty
        (``size <= 0``)."""
        if size <= 0:
            self.drained = True
            return None
        self.deposit(src_step, start, size, ancestors)
        return self.take(child)

    def strand(self) -> List[Tuple[int, int, int]]:
        """Empty the queue, returning each uncarved remainder as
        ``(src_step, start, size)`` (crash recovery of a dead group)."""
        stranded = [
            (chunk.src_step, chunk.start + chunk.taken, chunk.remaining)
            for chunk in self.ranges
            if chunk.remaining > 0
        ]
        self.ranges.clear()
        return stranded
