#!/usr/bin/env python
"""Really execute a workload on threads with DLS scheduling.

The simulator predicts timing; the native backend actually runs the
kernels.  Here we really compute Mandelbrot escape counts under (a)
flat GSS self-scheduling and (b) the hierarchical two-level scheme
(thread groups with local queues — the MPI+MPI design on one machine),
and verify both produce exactly the serial result.

Run:  python examples/native_threads.py
"""

import numpy as np

from repro.cluster.machine import NodeSpec
from repro.core.hierarchy import HierarchicalSpec
from repro.native import NativeRunner
from repro.workloads import mandelbrot_workload


def main() -> None:
    workload = mandelbrot_workload(width=128, height=128, max_iter=256)
    serial = workload.execute(0, workload.n)  # ground truth

    runner = NativeRunner(workload, n_workers=8, collect_outputs=True)

    # (a) flat GSS self-scheduling
    flat = runner.run_flat("GSS")
    print(f"flat GSS:          {flat.wall_seconds:.3f}s wall, "
          f"{len(flat.chunks)} chunks across {flat.n_workers} threads")

    # (b) hierarchical on a dual-socket 8-core node: one group of 4
    # threads per socket, GSS over the sockets, FAC2 inside each
    hier = runner.run_hierarchical(
        HierarchicalSpec.of("GSS", "FAC2"), topology=NodeSpec(cores=8, sockets=2)
    )
    print(f"hierarchical GSS+FAC2: {hier.wall_seconds:.3f}s wall, "
          f"{len(hier.chunks)} sub-chunks")

    # verify: reassemble outputs and compare to serial execution
    for result in (flat, hier):
        assembled = np.empty(workload.n, dtype=serial.dtype)
        for chunk in result.chunks:
            assembled[chunk.start : chunk.end] = result.outputs[chunk.start]
        assert np.array_equal(assembled, serial), "results differ from serial!"
    print("\nboth schedules reproduced the serial result bit-for-bit")

    print("\nper-thread iteration counts (hierarchical run):")
    for pe, count in sorted(hier.per_worker_iterations.items()):
        busy = hier.per_worker_busy[pe]
        print(f"  thread {pe}: {count:>6} iterations, {busy:.3f}s busy")


if __name__ == "__main__":
    main()
