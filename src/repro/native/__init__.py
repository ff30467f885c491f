"""Native backend (S9): really execute workloads on Python threads.

The simulator predicts timing; this backend actually *runs* the
workload kernels (Mandelbrot escape counts, spin-image generation)
under the very same :class:`~repro.core.technique_base.Technique`
chunk calculators, using shared-counter work queues protected by
real locks — a faithful single-machine analogue of the paper's
shared-memory work queue.

Use it for correctness validation (every iteration executed exactly
once, results identical to serial execution) and for demonstrating the
API on a laptop.  It is *not* a performance vehicle: CPython's GIL
serialises pure-Python sections (NumPy kernels release the GIL, so
modest real speedups do occur).

Conventions: times are host (wall-clock) seconds; worker thread ``w``
stands in for rank ``w``.
"""

from repro.native.runner import NativeResult, NativeRunner

__all__ = ["NativeResult", "NativeRunner"]
