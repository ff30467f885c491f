"""Non-hierarchical baseline: flat distributed chunk calculation.

Every MPI process obtains its chunks directly from the global RMA work
queue using the *inter*-level technique with ``P = total workers`` — the
approach of Eleliemy & Ciorba (PDP 2019 [15]) that the paper's
hierarchical scheme extends.  There is no local queue, so every chunk
request crosses the network (except for ranks co-located with the
window host), and fine-grained techniques hammer the single atomic
unit at the host — the scalability gap that motivates the hierarchy
(ablation A-2).

Only the root level of the spec is used (there is only one scheduling
level); any deeper levels of the stack are ignored, exactly as the
``intra`` half of a two-level pair always was.

Conventions: times are simulated seconds.  The one scheduling level
hands chunks to MPI ranks (``rank = node * ppn + core``): a chunk is
recorded as a root chunk when a rank grabs it and as a sub-chunk once
that rank has executed it, both with ``pe`` = the rank.
"""

from __future__ import annotations

from repro.core import trace as trace_mod
from repro.models.base import ExecutionModel, GlobalQueue, _Run, run_world
from repro.sim.primitives import Compute, ComputeOnce, Timeout
from repro.smpi.world import MpiWorld, RankCtx


class FlatMpiModel(ExecutionModel):
    """Flat (single-level) distributed chunk calculation."""

    name = "flat-mpi"
    supports_faults = True

    def inter_pe_count(self, cluster, ppn: int) -> int:
        """Every rank is a PE of the single scheduling level."""
        return cluster.n_nodes * ppn

    def _execute(self, run: _Run) -> None:
        run.n_sched_levels = 1
        world = MpiWorld(
            run.sim,
            run.cluster,
            ppn=run.ppn,
            costs=run.costs,
            faults=run.faults if run.faults_active else None,
        )
        total_workers = world.size
        calc = run.spec.inter.make_calculator(
            run.workload.n,
            total_workers,
            rng=run.sim.rng("inter-rnd"),
            chunk_overhead=run.costs.chunk_calc,
        )
        queue = GlobalQueue(
            world,
            calc,
            run.workload.n,
            host_rank=0,
            pinned=run.spec.inter.technique.pinned_per_pe,
            run=run,
        )
        finish_times = {}
        chunk_counts = {}
        iter_counts = {}

        def worker(ctx: RankCtx):
            n_chunks = 0
            n_iters = 0
            while True:
                t_obtain = run.sim.now
                if run.faults_active and run.orphans:
                    # adopt a dead rank's reclaimed range (claim before
                    # the bookkeeping read so it cannot be lost twice)
                    step, start, size = run.orphans.pop(0)
                    run.claim(ctx.rank, step, start, size)
                    yield from queue.window.get(ctx, "step")
                else:
                    step, start, size = yield from queue.next_chunk(
                        ctx, pe=ctx.rank
                    )
                if size <= 0:
                    if (
                        not run.faults_active
                        or run.executed_iterations >= run.workload.n
                    ):
                        break
                    # orphans may still arrive while dead ranks await
                    # detection: poll instead of exiting
                    yield Timeout(run.costs.mpi.shm_poll_interval)
                    continue
                if run.trace is not None and run.sim.now > t_obtain:
                    run.trace.add(
                        ctx.name(), t_obtain, run.sim.now, trace_mod.OBTAIN
                    )
                run.record_chunk(step, start, size, pe=ctx.rank)
                duration = run.exec_time(start, size, ctx.node, ctx.core)
                t0 = run.sim.now
                yield ComputeOnce(duration)  # jittered: unique per chunk, skip interning
                if run.trace is not None:
                    run.trace.add(ctx.name(), t0, run.sim.now, trace_mod.COMPUTE)
                if calc.listens:
                    calc.record(ctx.rank, size, compute_time=duration)
                run.record_subchunk(step, start, size, pe=ctx.rank)
                if run.faults_active:
                    run.release_claim(ctx.rank, step, start, size)
                n_chunks += 1
                n_iters += size
            finish_times[ctx.rank] = run.sim.now
            chunk_counts[ctx.rank] = n_chunks
            iter_counts[ctx.rank] = n_iters

        def recover(dead_rank: int):
            """Reclaim the victim's claims into the shared orphan pool
            and re-host the global window if the victim held it."""
            if queue.window.host_rank == dead_rank:
                live = [r for r in range(world.size) if world.rank_alive(r)]
                if live:
                    queue.window.fail_over(live[0])
                    run.fault_counters["failovers"] += 1
            stranded = list(run.claims.pop(dead_rank, ()))
            if queue.pinned and not queue._pinned_taken.get(dead_rank):
                queue._pinned_taken[dead_rank] = True
                size = queue.calc.size_at(dead_rank)
                if size > 0:
                    start = queue.calc.start_at(dead_rank)
                    stranded.append(
                        (dead_rank, start, min(size, queue.n - start))
                    )
            for step, start, size in stranded:
                if size > 0:
                    run.orphans.append((step, start, size))
                    run.fault_counters["chunks_reexecuted"] += 1
            return
            yield  # pragma: no cover - marks this function as a generator

        processes = run_world(run, world, worker, recover=recover)
        for process, ctx in zip(processes, world.contexts):
            end = process.end_time if process.end_time is not None else run.sim.now
            run.record_worker(
                name=ctx.name(),
                node=ctx.node,
                finish_time=finish_times.get(ctx.rank, end),
                process=process,
                n_chunks=chunk_counts.get(ctx.rank, 0),
                n_iterations=iter_counts.get(ctx.rank, 0),
            )
        run.counters["global_atomics"] = queue.window.n_atomics
        run.counters["remote_atomics"] = queue.window.n_remote_atomics
