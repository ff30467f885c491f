"""Host speed, sampled while the benchmark runs, and times scaled by it.

The benchmark's machine shares its processors with other virtual
machines.  While a neighbour is busy, the same Python code runs up to
2.5x slower here, in spells of tens of milliseconds to minutes, and
the guest sees no steal time: process CPU time grows with the wall
time.  Ten runs of the same code then spread by up to 54 %, which no
run length or median within a run removes.

So every process of a run samples the speed of the processor it is
running on.  After every :data:`PERIOD` seconds of CPU time (``SIGPROF``
from ``ITIMER_PROF``) a handler times a fixed pure-Python reference
loop and appends ``(perf_counter stamp, loop seconds)`` to a file of
its own.  Pool workers forked from the process sample too, from the
moment they start.  At the end of the run, :class:`HostSpeed` reads
every sample.  A sample's speed is :data:`REFERENCE_SECONDS` over its
loop time, and a span of wall time ``[t0, t1]`` becomes
``(t1 - t0) * speed``, where ``speed`` is the mean speed of the samples
taken in the span (or of the :data:`MIN_SAMPLES` nearest ones if the
span holds fewer): the seconds the span would have lasted on a host
that runs the loop in :data:`REFERENCE_SECONDS`.  The reference is a
constant, not a property of the run, because a run may fall wholly in
a slow spell.

The reference loop is interpreter work like the program's.  On a
10 048-rank cohort cell whose wall time ranged from 3.7 to 4.4 s on a
noisy 2-vCPU Xeon host, the scaled time stayed within 1.66-1.73 s, and
over ten runs the spread of the figure-sweep and service times fell from
17-33 % to 3-7 %.  Code whose slowdown differs from the loop's is
corrected only in part: a warm figure sweep that takes twice as long in
the heaviest spells still reads about 15 % slower after scaling.  A
loop that took more than :data:`PREEMPTED` times the run's median loop
time was descheduled while it ran; it measured the scheduler, not the
processor, and is left out.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import struct
import time
from typing import List, Optional, Tuple

#: seconds of a process's CPU time between two samples
PERIOD = 0.002
#: iterations of the reference loop
REFERENCE_STEPS = 300
#: seconds of the reference loop that count as speed 1: a round figure
#: a little below its time on the host the benchmark was built on
#: (27-32 us in a tight loop), so scaled times read below wall times there
REFERENCE_SECONDS = 25e-6
#: samples a span is scaled by at least, taken nearest to it
MIN_SAMPLES = 8
#: loop times above this multiple of the run's median loop time were
#: preempted while they ran
PREEMPTED = 3.0

_RECORD = struct.Struct("dd")


def _reference(steps: int = REFERENCE_STEPS) -> float:
    table = {}
    total = 0.0
    for k in range(steps):
        total += (k & 7) * 0.5
        table[k & 63] = total
    return total


class Sampler:
    """Samples this process's speed, and that of every child it forks.

    A context manager: entering starts the timer and the ``SIGPROF``
    handler, leaving stops them.  Signals and fork hooks belong to the
    process, so at most one sampler runs in a process at a time.
    """

    _active: Optional["Sampler"] = None
    _hooked = False

    def __init__(self, directory: str):
        self.directory = directory
        self._fd: Optional[int] = None
        self._previous = None

    def __enter__(self) -> "Sampler":
        if Sampler._active is not None:
            raise RuntimeError("a host speed sampler already runs in this process")
        os.makedirs(self.directory, exist_ok=True)
        Sampler._active = self
        if not Sampler._hooked:
            os.register_at_fork(after_in_child=Sampler._after_fork)
            Sampler._hooked = True
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._open()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        Sampler._active = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _open(self) -> None:
        path = os.path.join(self.directory, f"{os.getpid()}.bin")
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)

    @staticmethod
    def _after_fork() -> None:
        # a forked child inherits the handler but not the timer, and
        # must not write to its parent's file
        sampler = Sampler._active
        if sampler is not None and sampler._fd is not None:
            os.close(sampler._fd)
            sampler._open()

    def _sample(self, signum, frame) -> None:
        if self._fd is None:
            return
        start = time.perf_counter()
        _reference()
        os.write(self._fd, _RECORD.pack(start, time.perf_counter() - start))


def read_samples(directory: str) -> List[Tuple[float, float]]:
    """Every ``(stamp, loop seconds)`` sample in ``directory``, by stamp."""
    samples: List[Tuple[float, float]] = []
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        usable = len(data) - len(data) % _RECORD.size
        samples.extend(_RECORD.iter_unpack(data[:usable]))
    samples.sort()
    return samples


class HostSpeed:
    """Scales spans of wall time to the reference host speed."""

    def __init__(self, samples: List[Tuple[float, float]]):
        if not samples:
            raise ValueError("no host speed samples: was the sampler running?")
        limit = PREEMPTED * statistics.median(loop for _, loop in samples)
        kept = [(stamp, REFERENCE_SECONDS / loop) for stamp, loop in samples
                if loop <= limit]
        self.stamps = [stamp for stamp, _ in kept]
        self._cumulative = [0.0]
        for _, speed in kept:
            self._cumulative.append(self._cumulative[-1] + speed)

    def speed(self, t0: float, t1: float) -> float:
        """Mean sampled speed (1 = reference) over ``[t0, t1]``."""
        stamps = self.stamps
        lo = bisect.bisect_left(stamps, t0)
        hi = bisect.bisect_right(stamps, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(stamps)):
            if hi == len(stamps) or (lo > 0 and t0 - stamps[lo - 1] <= stamps[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return (self._cumulative[hi] - self._cumulative[lo]) / (hi - lo)

    def scale(self, t0: float, t1: float) -> float:
        """Seconds ``[t0, t1]`` would have lasted at the reference speed."""
        return (t1 - t0) * self.speed(t0, t1)
