"""Execution traces and ASCII Gantt charts.

Collects per-worker activity intervals during a simulated run and can
render them as a text Gantt chart — which is how we regenerate the
paper's Figures 2 and 3 (the implicit-synchronisation illustration for
MPI+OpenMP vs the barrier-free MPI+MPI execution).

Conventions: interval ends and marks are simulated seconds from the
loop start.  A worker is named by its rank (``RankCtx.name()``, or a
thread name for OpenMP team members); the chart lists workers in the
order they first appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


#: activity categories, matching the legends of Figures 2 and 3
COMPUTE = "compute"
OBTAIN = "obtain"  # obtaining a new chunk via MPI
SYNC = "sync"  # implicit synchronisation (barrier wait)
IDLE = "idle"

_GLYPH = {COMPUTE: "#", OBTAIN: "o", SYNC: "=", IDLE: ".", None: " "}


@dataclass(frozen=True)
class Interval:
    """One worker in one activity ``kind`` from ``start`` to ``end``
    (seconds)."""

    worker: str
    start: float
    end: float
    kind: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self!r}")

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start


class Trace:
    """An append-only log of worker activity intervals.

    Execution models call :meth:`add` as workers move between states.
    Rendering collapses the intervals onto a fixed-width character grid;
    within one cell the *dominant* activity wins, which keeps the charts
    readable at any resolution.
    """

    def __init__(self) -> None:
        self.intervals: List[Interval] = []
        self.marks: List[Tuple[float, str]] = []

    def add(self, worker: str, start: float, end: float, kind: str, label: str = "") -> None:
        """Log ``worker`` in ``kind`` over ``[start, end)`` seconds;
        an empty interval is dropped."""
        if end > start:
            self.intervals.append(Interval(worker, start, end, kind, label))

    def mark(self, time: float, label: str) -> None:
        """Record a global event (loop start/end, barrier release, ...)."""
        self.marks.append((time, label))

    # ------------------------------------------------------------------
    def workers(self) -> List[str]:
        """Worker names in order of first appearance."""
        seen: Dict[str, None] = {}
        for iv in self.intervals:
            seen.setdefault(iv.worker, None)
        return list(seen)

    def span(self) -> Tuple[float, float]:
        """``(first start, last end)`` over all intervals, in seconds;
        ``(0, 0)`` for an empty trace."""
        if not self.intervals:
            return (0.0, 0.0)
        return (
            min(iv.start for iv in self.intervals),
            max(iv.end for iv in self.intervals),
        )

    def total(self, kind: str, worker: Optional[str] = None) -> float:
        """Total time spent in ``kind`` (optionally for one worker)."""
        return sum(
            iv.duration
            for iv in self.intervals
            if iv.kind == kind and (worker is None or iv.worker == worker)
        )

    def render_gantt(self, width: int = 100, legend: bool = True) -> str:
        """ASCII Gantt chart: one row per worker, time left to right.

        Glyphs: ``#`` compute, ``o`` obtaining a chunk via MPI,
        ``=`` (implicit) synchronisation wait, ``.`` idle.
        """
        t0, t1 = self.span()
        if t1 <= t0:
            return "(empty trace)"
        dt = (t1 - t0) / width
        rows: List[str] = []
        name_width = max((len(w) for w in self.workers()), default=4)
        for worker in self.workers():
            # accumulate dominant activity per cell
            cells: List[Dict[str, float]] = [dict() for _ in range(width)]
            for iv in self.intervals:
                if iv.worker != worker:
                    continue
                first = int((iv.start - t0) / dt)
                last = min(width - 1, int((iv.end - t0) / dt))
                for cell in range(max(0, first), last + 1):
                    cell_start = t0 + cell * dt
                    cell_end = cell_start + dt
                    overlap = min(iv.end, cell_end) - max(iv.start, cell_start)
                    if overlap > 0:
                        cells[cell][iv.kind] = cells[cell].get(iv.kind, 0.0) + overlap
            line = "".join(
                _GLYPH[max(c, key=c.get)] if c else " " for c in cells
            )
            rows.append(f"{worker:<{name_width}} |{line}|")
        header = f"{'':<{name_width}}  t={t0:.4g}s{'':>{max(0, width - 18)}}t={t1:.4g}s"
        out = [header, *rows]
        if legend:
            out.append(
                f"{'':<{name_width}}  legend: #=compute  o=obtain chunk via MPI  "
                "==implicit sync  .=idle"
            )
        return "\n".join(out)

    def sync_time_per_worker(self) -> Dict[str, float]:
        """Total implicit-synchronisation time per worker (Fig. 2 metric)."""
        return {w: self.total(SYNC, w) for w in self.workers()}

    def to_chrome_trace(self) -> List[dict]:
        """Export as Chrome trace-event objects (``chrome://tracing``,
        Perfetto).  One complete ('X') event per interval; workers map
        to thread ids, activity kinds to categories.  Times are emitted
        in microseconds as the format requires."""
        tids = {worker: tid for tid, worker in enumerate(self.workers())}
        events = [
            {
                "name": iv.label or iv.kind,
                "cat": iv.kind,
                "ph": "X",
                "ts": iv.start * 1e6,
                "dur": iv.duration * 1e6,
                "pid": 0,
                "tid": tids[iv.worker],
                "args": {"worker": iv.worker},
            }
            for iv in self.intervals
        ]
        events.extend(
            {
                "name": label,
                "ph": "i",
                "ts": time * 1e6,
                "pid": 0,
                "tid": 0,
                "s": "g",
            }
            for time, label in self.marks
        )
        return events

    def save_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` JSON to ``path``."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_chrome_trace()))
