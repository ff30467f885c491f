"""Command-line interface.

Examples::

    repro techniques                       # list the DLS roster
    repro table1                           # regenerate paper Table 1
    repro figure --id fig5a                # regenerate a paper figure
    repro figure --id fig4b --scale quick --nodes 2,4
    repro sync                             # Figures 2/3 Gantt charts
    repro intext                           # Sec. 5 in-text numbers
    repro ablation --id lockpoll           # A-1 .. A-4
    repro run --app mandelbrot --inter GSS --intra STATIC \
              --approach mpi+mpi --nodes 4   # one simulated execution
    repro run --techniques GSS+FAC2+STATIC --sockets 2 --nodes 4 \
              --ppn 16                       # three-level stack
              # (GSS across nodes, FAC2 across each node's sockets,
              #  STATIC across each socket's cores)
    repro run --techniques GSS+FAC2+FAC2+STATIC --sockets 2 --numa 2 \
              --nodes 4 --ppn 16             # four-level stack
              # (… FAC2 across each socket's NUMA domains, STATIC
              #  across each NUMA domain's cores)
    repro run --techniques GSS+FAC2+FAC2+ADAPT --sockets 2 --numa 2 \
              --nodes 4 --ppn 16 --costs numa
              # ADAPT leaf: runtime-selected SS/FAC2/GSS per NUMA
              # queue, under the non-zero NUMA/socket penalty preset
    repro run --techniques "GSS+ADAPT[ss,fac2,tss]" --nodes 4 --ppn 16
              # configured selector ladder: the node-level queue is
              # refilled by a selector walking ss->fac2->tss (quote the
              # brackets for the shell)
    repro run --techniques GSS+FAC2+FAC2+STATIC --sockets 2 --numa 2 \
              --nodes 4 --ppn 16 --placement optimized --costs calibrated
              # penalty-aware queue placement: window homes solved to
              # minimise predicted priced traffic, calibrated penalties
    repro run --techniques FAC2+SS --nodes 4 --ppn 4 \
              --faults crash:5@0.002,slow:2@0.001:0.5
              # fault injection: rank 5 crash-stops at t=2ms, rank 2
              # runs at half speed from t=1ms; the run completes on the
              # survivors (see docs/ROBUSTNESS.md)
    repro run --approach dcc --techniques GSS+FAC2 --nodes 4 --ppn 16
              # distributed chunk calculation: the stack is flattened
              # ahead of time, every rank fetch-and-increments one
              # global counter and resolves its chunk locally (no
              # coordinator, no queues)
    repro serve --port 8752 --jobs 4 --cache-dir .cellcache
              # sweep-as-a-service: accept sweep specs as JSON
              # (POST /sweep), dedupe concurrent duplicates against the
              # shared cell cache, stream per-cell results as NDJSON
              # (see docs/SERVICE.md)

Printed times are simulated seconds unless marked wall; ``--nodes``
is a node count, ``--ppn`` ranks per node, and ``--faults`` names
global ranks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_techniques(args: argparse.Namespace) -> int:
    from repro.core import list_techniques

    print(f"{'name':<8} {'OpenMP clause':<22} {'flags':<28} description")
    print("-" * 100)
    for row in list_techniques():
        flags = ",".join(
            flag
            for flag, on in (
                ("adaptive", row["adaptive"]),
                ("pe-dep", row["pe_dependent"]),
                ("profile", row["needs_profile"]),
                ("weights", row["needs_weights"]),
            )
            if on
        )
        clause = row["openmp_clause"] or (
            "ext" if row["openmp_extension_clause"] else "-"
        )
        print(f"{row['name']:<8} {clause:<22} {flags:<28} {row['description']}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1

    print(table1(include_extensions=not args.paper_only))
    return 0


def _report(results) -> int:
    """Print each result's report; exit status 1 if a shape check failed."""
    ok = True
    for result in results:
        print(result.to_text())
        print()
        ok &= result.all_passed
    return 0 if ok else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FIGURES, run_figure

    if args.id != "all" and args.id not in FIGURES:
        print(f"unknown figure {args.id!r}; known: {sorted(FIGURES)}")
        return 2
    ids = sorted(FIGURES) if args.id == "all" else [args.id]
    node_counts = (
        tuple(int(n) for n in args.nodes.split(",")) if args.nodes else None
    )
    return _report(
        run_figure(
            figure_id,
            scale=args.scale,
            seed=args.seed,
            node_counts=node_counts,
            progress=print if args.verbose else None,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        for figure_id in ids
    )


def _cmd_sync(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_sync_illustration

    print(run_sync_illustration(scale=args.scale or "quick", seed=args.seed))
    return 0


def _cmd_intext(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_variant
    from repro.experiments.intext import intext_variant

    scale = args.scale or "default"
    return _report([run_variant(intext_variant(), scale=scale, seed=args.seed)])


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ABLATIONS
    from repro.experiments.figures import run_variant

    if args.id != "all" and args.id not in ABLATIONS:
        print(f"unknown ablation {args.id!r}; known: {sorted(ABLATIONS)}")
        return 2
    ids = sorted(ABLATIONS) if args.id == "all" else [args.id]
    return _report(
        run_variant(ABLATIONS[i](), scale=args.scale, seed=args.seed) for i in ids
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import run_hierarchical
    from repro.cluster.costs import COST_PRESETS
    from repro.cluster.machine import minihpc
    from repro.cluster.noise import HARSH_NOISE, MILD_NOISE, NO_NOISE
    from repro.experiments.workloads import figure_workload

    noise = {"mild": MILD_NOISE, "none": NO_NOISE, "harsh": HARSH_NOISE}[
        args.noise
    ]

    workload = figure_workload(args.app, args.scale or "quick")
    if args.techniques is not None:
        # full ``+``-joined stack, any depth (overrides --inter/--intra)
        inter, intra = args.techniques, None
    else:
        inter, intra = args.inter, args.intra
    costs = COST_PRESETS[args.costs or "default"]
    result = run_hierarchical(
        workload,
        minihpc(
            args.nodes,
            args.ppn,
            sockets_per_node=args.sockets,
            numa_per_socket=args.numa,
        ),
        inter=inter,
        intra=intra,
        approach=args.approach,
        ppn=args.ppn,
        seed=args.seed,
        collect_trace=args.gantt,
        collect_chunks=False,
        costs=costs,
        placement=args.placement,
        faults=args.faults,
        max_sim_time=args.max_sim_time,
        engine=args.engine,
        noise=noise,
    )
    print(result.describe())
    print(result.metrics.summary())
    if "failures_injected" in result.counters:
        dead = result.counters.get("dead_ranks", [])
        dead_text = ",".join(str(r) for r in dead) if dead else "none"
        print(
            f"faults: {result.counters['failures_injected']} injected "
            f"(dead ranks: {dead_text}), "
            f"{result.counters['chunks_reexecuted']} chunk(s) re-executed, "
            f"{result.counters['failovers']} failover(s), "
            f"{result.counters['lock_leases_broken']} lease(s) broken"
        )
    if "placement_cost_s" in result.counters:
        moved = result.counters.get("placement_moved", ())
        moved_text = (
            ", ".join(str(key) for key in moved) if moved else "none"
        )
        print(
            f"placement: {result.counters['placement']} "
            f"(priced queue traffic "
            f"{result.counters['placement_cost_s'] * 1e6:.1f}us, "
            f"windows moved: {moved_text})"
        )
    if "adapt_final_modes" in result.counters:
        modes = ", ".join(
            f"{mode}x{count}"
            for mode, count in sorted(result.counters["adapt_final_modes"].items())
        )
        print(
            f"ADAPT: {result.counters['adapt_switches']} switch(es), "
            f"final modes {modes}"
        )
    if args.gantt:
        print(result.trace.render_gantt(width=100))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import main as serve_main

    forwarded: List[str] = ["--host", args.host, "--port", str(args.port),
                            "--jobs", str(args.jobs)]
    if args.cache_dir is not None:
        forwarded += ["--cache-dir", args.cache_dir]
    if args.quiet:
        forwarded += ["--quiet"]
    return serve_main(forwarded)


def _add_scale_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", default=None,
                   choices=["tiny", "quick", "default", "full"])
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser, one subcommand per example above."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hierarchical dynamic loop self-scheduling (MPI+MPI vs "
            "MPI+OpenMP) — simulation & reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("techniques", help="list the DLS technique roster")
    p.set_defaults(fn=_cmd_techniques)

    p = sub.add_parser("table1", help="regenerate paper Table 1")
    p.add_argument("--paper-only", action="store_true",
                   help="omit the LaPeSD-libGOMP extension rows")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("figure", help="regenerate paper figures 4-7")
    p.add_argument("--id", default="all",
                   help="fig4a..fig7b or 'all' (default)")
    _add_scale_seed(p)
    p.add_argument("--nodes", default=None,
                   help="comma-separated node counts (default 2,4,8,16)")
    p.add_argument("--jobs", type=int, default=1,
                   help="simulate independent grid cells on N processes")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed on-disk cell cache directory")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("sync", help="regenerate figures 2/3 (Gantt charts)")
    _add_scale_seed(p)
    p.set_defaults(fn=_cmd_sync)

    p = sub.add_parser("intext", help="reproduce the Sec. 5 in-text numbers")
    _add_scale_seed(p)
    p.set_defaults(fn=_cmd_intext)

    p = sub.add_parser("ablation", help="run ablations A-1..A-4")
    p.add_argument("--id", default="all",
                   help="lockpoll | models | nowait | ppn | all")
    _add_scale_seed(p)
    p.set_defaults(fn=_cmd_ablation)

    p = sub.add_parser("run", help="run one simulated loop execution")
    p.add_argument("--app", default="mandelbrot",
                   choices=["mandelbrot", "psia"])
    p.add_argument("--approach", default="mpi+mpi",
                   help="execution model: mpi+mpi (paper), mpi+openmp, "
                        "flat-mpi, master-worker, or dcc (distributed "
                        "chunk calculation: one global counter, chunks "
                        "resolved locally from the flattened stack)")
    p.add_argument("--engine", default="scalar",
                   choices=["scalar", "cohort"],
                   help="execution engine: scalar replays every rank as "
                        "its own coroutine; cohort batches rank-symmetric "
                        "events into aggregated macro-events (bit-identical "
                        "results on eligible deterministic cells, orders of "
                        "magnitude faster at high rank counts; ineligible "
                        "cells transparently fall back to scalar)")
    p.add_argument("--noise", default="mild",
                   choices=["mild", "none", "harsh"],
                   help="execution-time noise model (default mild: the "
                        "paper's calibrated scatter; none makes the run "
                        "fully deterministic, which is what the cohort "
                        "engine's fast path requires)")
    p.add_argument("--inter", default="GSS")
    p.add_argument("--intra", default="STATIC")
    p.add_argument("--techniques", default=None, metavar="W+X[+Y[+Z]]",
                   help="full scheduling stack, one technique per level "
                        "(e.g. GSS+FAC2+STATIC schedules nodes, then each "
                        "node's sockets, then each socket's cores; a 4th "
                        "level schedules each socket's NUMA domains; ADAPT "
                        "at any level selects SS/FAC2/GSS at runtime, and "
                        "ADAPT[ss,fac2,tss] configures the candidate ladder "
                        "with optional window=/dwell=/improve= knobs); "
                        "overrides --inter/--intra")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--sockets", type=int, default=1,
                   help="sockets per node (the machine tier a 3-level "
                        "stack schedules at)")
    p.add_argument("--numa", type=int, default=1,
                   help="NUMA domains per socket (the 4th machine tier a "
                        "4-level stack schedules at)")
    p.add_argument("--ppn", type=int, default=16)
    _add_scale_seed(p)
    p.add_argument("--costs", default=None,
                   choices=["default", "numa", "calibrated"],
                   help="cost preset: 'default' (distance-blind), 'numa' "
                        "(the stress-test NUMA/socket penalty preset), or "
                        "'calibrated' (penalties derived from published "
                        "STREAM/Intel-MLC latency ratios; see "
                        "docs/PLACEMENT.md)")
    p.add_argument("--placement", default="leader",
                   choices=["leader", "optimized"],
                   help="work-queue window homes (mpi+mpi, dcc): 'leader' pins "
                        "each window to its tier-group leader (the paper's "
                        "rule); 'optimized' solves for homes minimising "
                        "predicted priced traffic "
                        "(repro.cluster.placement_opt)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault schedule: comma-joined crash:R@T (rank R "
                        "crash-stops at simulated time T), slow:R@T:F "
                        "(rank R runs at speed fraction F from T) and "
                        "stall:R@T:D (rank R freezes for D seconds) "
                        "tokens, e.g. crash:5@0.002,slow:2@0.001:0.5; "
                        "requires a failure-aware approach (mpi+mpi, "
                        "flat-mpi, master-worker, dcc)")
    p.add_argument("--max-sim-time", type=float, default=None,
                   metavar="SECONDS",
                   help="engine watchdog: abort with diagnostics if the "
                        "simulation passes this simulated time")
    p.add_argument("--gantt", action="store_true",
                   help="render an ASCII Gantt chart of the execution")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("serve", help="run the sweep job server "
                                     "(POST /sweep over the shared cell "
                                     "cache; see docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8752,
                   help="TCP port (default 8752; 0 = ephemeral)")
    p.add_argument("--jobs", type=int, default=2,
                   help="simulation worker processes")
    p.add_argument("--cache-dir", default=None,
                   help="shared content-addressed cell cache directory")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access logging")
    p.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """``repro`` entry point: run one subcommand, return its exit status."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
