"""Centralised master-worker baseline (DLB-tool style).

The historical implementation strategy for DLS on distributed memory
(Cariño & Banicescu's DLB tool [10], DLBL [11]): one dedicated master
rank receives work requests over two-sided messages, computes each
chunk with the selected technique, and replies with the assignment.

Characteristics the ablation (A-2) exposes:

* request/response latency on every chunk (two messages);
* the master serialises *all* chunk calculations — with many workers
  and fine-grained techniques it becomes the bottleneck the paper's
  Section 2 describes;
* one worker slot is lost to the dedicated master (rank 0 does not
  execute iterations), mirroring HDSS [13] rather than the DLB tool's
  participating master.

Only the root level of the spec is used (single-level scheduling); any
deeper levels of the stack are ignored.

Conventions: times are simulated seconds.  PEs are MPI ranks
(``rank = node * ppn + core``); the master records each assignment as a
root chunk with ``pe`` = the requesting worker's rank, and the worker
records it as a sub-chunk when it executes it.
"""

from __future__ import annotations

from repro.core import trace as trace_mod
from repro.models.base import ExecutionModel, _Run, run_world
from repro.sim.primitives import Compute, ComputeOnce, Overhead
from repro.smpi.p2p import Message
from repro.smpi.world import MpiWorld, RankCtx

#: message tags
TAG_REQUEST = 1
TAG_ASSIGN = 2


class MasterWorkerModel(ExecutionModel):
    """Classic two-sided master-worker self-scheduling."""

    name = "master-worker"
    supports_faults = True

    def inter_pe_count(self, cluster, ppn: int) -> int:
        """Every rank but the dedicated master (rank 0) is a PE."""
        return cluster.n_nodes * ppn - 1

    def _execute(self, run: _Run) -> None:
        run.n_sched_levels = 1
        if run.faults_active and 0 in run.faults.crashed_ranks:
            raise ValueError(
                "master-worker cannot survive a crash of rank 0 (the "
                "dedicated master is a single point of failure); crash a "
                "worker rank instead, or use the mpi+mpi model"
            )
        world = MpiWorld(
            run.sim,
            run.cluster,
            ppn=run.ppn,
            costs=run.costs,
            faults=run.faults if run.faults_active else None,
        )
        n_workers = world.size - 1
        if n_workers < 1:
            raise ValueError("master-worker needs at least 2 ranks")
        calc = run.spec.inter.make_calculator(
            run.workload.n,
            n_workers,
            chunk_overhead=run.costs.chunk_calc,
        )
        n = run.workload.n
        finish_times = {}
        chunk_counts = {}
        iter_counts = {}

        def master(ctx: RankCtx):
            # Failure-aware master: requesters are parked in ``waiting``
            # and served orphaned (reclaimed) ranges before fresh chunks;
            # a worker is retired with ``None`` only once the whole
            # iteration space is scheduled AND no range is still in
            # flight (claimed or orphaned), so a late crash can always be
            # re-served.  The fault injector announces each confirmed
            # death with a ``"__dead__"`` request from the victim.
            # Without faults nothing is orphaned or claimed and every
            # rank stays alive, so each request is served as it arrives.
            scheduled = 0
            step = 0
            done_sent = 0
            n_live = n_workers
            waiting = []
            while done_sent < n_live:
                source, payload = yield from ctx.recv_any(TAG_REQUEST)
                if payload == "__dead__":
                    n_live -= 1
                    if source in waiting:
                        waiting.remove(source)
                else:
                    waiting.append(source)
                # reclaimed ranges first: no chunk calculation needed,
                # and claiming before any yield keeps the ledger tight
                while waiting and run.orphans:
                    w = waiting.pop(0)
                    if not world.rank_alive(w):
                        continue
                    assignment = run.orphans.pop(0)
                    run.claim(w, *assignment)
                    yield from ctx.send(w, TAG_ASSIGN, assignment)
                while waiting and scheduled < n:
                    w = waiting.pop(0)
                    if not world.rank_alive(w):
                        continue
                    yield Overhead(run.costs.chunk_calc)
                    if not world.rank_alive(w):
                        # died during the calculation; the range was not
                        # carved yet, so just drop the request
                        continue
                    size = calc.size_at(step, pe=(w - 1) % n_workers)
                    size = max(1, min(size, n - scheduled))
                    if run.faults_active:
                        run.claim(w, step, scheduled, size)
                    run.record_chunk(step, scheduled, size, pe=w)
                    assignment = (step, scheduled, size)
                    scheduled += size
                    step += 1
                    yield from ctx.send(w, TAG_ASSIGN, assignment)
                if (
                    scheduled >= n
                    and not run.orphans
                    and not any(run.claims.values())
                ):
                    while waiting:
                        w = waiting.pop(0)
                        if not world.rank_alive(w):
                            continue
                        yield from ctx.send(w, TAG_ASSIGN, None)
                        done_sent += 1
            finish_times[ctx.rank] = run.sim.now
            chunk_counts[ctx.rank] = 0
            iter_counts[ctx.rank] = 0

        def worker(ctx: RankCtx):
            n_chunks = 0
            n_iters = 0
            while True:
                t_obtain = run.sim.now
                yield from ctx.send(0, TAG_REQUEST, None)
                assignment = yield from ctx.recv(0, TAG_ASSIGN)
                if assignment is None:
                    break
                step, start, size = assignment
                if run.trace is not None and run.sim.now > t_obtain:
                    run.trace.add(
                        ctx.name(), t_obtain, run.sim.now, trace_mod.OBTAIN
                    )
                duration = run.exec_time(start, size, ctx.node, ctx.core)
                t0 = run.sim.now
                yield ComputeOnce(duration)  # jittered: unique per chunk, skip interning
                if run.trace is not None:
                    run.trace.add(ctx.name(), t0, run.sim.now, trace_mod.COMPUTE)
                if calc.listens:
                    calc.record(
                        (ctx.rank - 1) % n_workers, size, compute_time=duration
                    )
                run.record_subchunk(step, start, size, pe=ctx.rank)
                if run.faults_active:
                    run.release_claim(ctx.rank, step, start, size)
                n_chunks += 1
                n_iters += size
            finish_times[ctx.rank] = run.sim.now
            chunk_counts[ctx.rank] = n_chunks
            iter_counts[ctx.rank] = n_iters

        def main(ctx: RankCtx):
            if ctx.rank == 0:
                yield from master(ctx)
            else:
                yield from worker(ctx)

        def recover(dead_rank: int):
            """Move the victim's claims to the orphan pool and wake the
            master with a death notice (zero-latency local delivery —
            the detection delay was already charged by the injector)."""
            stranded = list(run.claims.pop(dead_rank, ()))
            for step, start, size in stranded:
                if size > 0:
                    run.orphans.append((step, start, size))
                    run.fault_counters["chunks_reexecuted"] += 1
            world._mailboxes[0].deliver_after(
                0.0,
                Message(source=dead_rank, tag=TAG_REQUEST, payload="__dead__"),
            )
            return
            yield  # pragma: no cover - marks this function as a generator

        processes = run_world(run, world, main, recover=recover)
        for process, ctx in zip(processes, world.contexts):
            end = process.end_time if process.end_time is not None else run.sim.now
            run.record_worker(
                name=ctx.name() + (".master" if ctx.rank == 0 else ""),
                node=ctx.node,
                finish_time=finish_times.get(ctx.rank, end),
                process=process,
                n_chunks=chunk_counts.get(ctx.rank, 0),
                n_iterations=iter_counts.get(ctx.rank, 0),
            )
        run.counters["messages"] = sum(
            box.n_delivered for box in world._mailboxes.values()
        )
