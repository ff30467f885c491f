"""Grid runner: sweep (approach x intra x nodes) cells for one figure.

Runs are independent simulations, so the runner can fan them out over a
process pool (``jobs``) and serve repeats from a content-addressed
on-disk cache (``cache_dir``) — see :mod:`repro.experiments.parallel`.
Within one process it caches nothing across cells except the workload
object (which is the expensive part) and collects results into a tidy
list for the report layer.

Unit convention: a :class:`Cell`'s ``time`` and ``placement_cost`` are
simulated seconds; ``wall_seconds`` is host seconds.  Index convention:
a cell is sized by its node *count* and ``ppn`` ranks per node; no
node index or rank identifies a cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.api import run_hierarchical
from repro.cluster.costs import CostModel
from repro.cluster.machine import ClusterSpec, minihpc
from repro.models.base import RunResult
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Cell:
    """One grid cell: a single simulated execution.

    ``inter``/``intra`` are technique *stacks*: either may be a
    ``+``-joined multi-level string (``intra="FAC2+STATIC"`` schedules
    sockets then cores within each inter-node chunk), so a sweep can
    mix two- and three-level configurations in one grid.
    """

    approach: str
    inter: str
    intra: str
    nodes: int
    time: float
    overhead_fraction: float
    idle_fraction: float
    cov: float
    n_events: int
    wall_seconds: float
    #: measured distance-priced queue traffic (seconds): shared-window
    #: locality penalties + global-window atomic service time — the
    #: quantity window *placement* can change (0 for models that do not
    #: report it, and under the distance-blind default costs the
    #: shared-window share is 0)
    placement_cost: float = 0.0
    #: faults injected into this cell's simulation (0 for fault-free
    #: sweeps) and work ranges re-executed by survivors after crashes
    n_failures: int = 0
    n_reexecuted: int = 0

    @property
    def label(self) -> str:
        """The full ``+``-joined technique stack, e.g. ``"GSS+STATIC"``."""
        return f"{self.inter}+{self.intra}"

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-ready form (the cache / report interchange layer).

        The fields in declaration order.  Every field is an immutable
        scalar, so a shallow copy equals ``dataclasses.asdict`` without
        its deep copy.
        """
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Cell":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)

    def same_result(self, other: "Cell") -> bool:
        """Equality of everything the simulation determines.

        ``wall_seconds`` measures the host machine, not the simulated
        system, so it is excluded — it is the one field allowed to vary
        between a serial run, a parallel run, and a cache hit.
        """
        mine, theirs = self.to_dict(), other.to_dict()
        mine.pop("wall_seconds")
        theirs.pop("wall_seconds")
        return mine == theirs


def simulate_cell(
    workload: Workload,
    cluster: ClusterSpec,
    approach: str,
    inter: str,
    intra: str,
    nodes: int,
    ppn: int,
    seed: int,
    costs: Optional[CostModel] = None,
    placement: Union[str, Mapping[Any, int]] = "leader",
    faults: Optional[Any] = None,
) -> Cell:
    """Run one cell's simulation (shared by serial path and pool workers).

    ``costs`` overrides the cost model (None = package default),
    ``placement`` the window-home policy and ``faults`` the fault
    schedule (a :class:`repro.cluster.faults.FaultModel` or None) —
    all default to the historical behaviour, so pre-existing sweeps
    are untouched.
    """
    t0 = time.perf_counter()
    result: RunResult = run_hierarchical(
        workload,
        cluster,
        inter=inter,
        intra=intra,
        approach=approach,
        ppn=ppn,
        seed=seed,
        collect_chunks=False,
        costs=costs,
        placement=placement,
        faults=faults,
    )
    wall = time.perf_counter() - t0
    return Cell(
        approach=approach,
        inter=inter,
        intra=intra,
        nodes=nodes,
        time=result.parallel_time,
        overhead_fraction=result.metrics.overhead_fraction,
        idle_fraction=result.metrics.idle_fraction,
        cov=result.metrics.cov_finish,
        n_events=result.n_events,
        wall_seconds=wall,
        placement_cost=float(result.counters.get("placement_cost_s", 0.0)),
        n_failures=int(result.counters.get("failures_injected", 0)),
        n_reexecuted=int(result.counters.get("chunks_reexecuted", 0)),
    )


@dataclass
class GridRunner:
    """Sweeps scheduling combinations over cluster sizes.

    Parameters mirror the paper's setup: 16 workers per node, node
    counts {2, 4, 8, 16}, inter technique fixed per figure, intra
    techniques on the panels.  ``jobs > 1`` fans independent cells out
    over a process pool; ``cache_dir`` serves previously simulated
    cells from disk (results are identical either way — see
    :mod:`repro.experiments.parallel`).

    Multi-level stacks sweep like any other panel: pass a socketed
    ``cluster_factory`` (e.g. ``lambda n: minihpc(n, 16,
    sockets_per_node=2)``) and ``+``-joined intra stacks
    (``intras=["STATIC", "FAC2+STATIC"]``) to compare two- and
    three-level scheduling of the same figure grid; add
    ``numa_per_socket=2`` to the factory and a second mid technique
    (``intras=["FAC2+FAC2+STATIC"]``) for four-level NUMA sweeps.
    """

    workload: Workload
    ppn: int = 16
    node_counts: Tuple[int, ...] = (2, 4, 8, 16)
    seed: int = 0
    cluster_factory: Optional[Callable[[int], ClusterSpec]] = None
    progress: Optional[Callable[[str], None]] = None
    jobs: int = 1
    cache_dir: Optional[str] = None
    #: cost-model override for every cell (None = package default)
    costs: Optional[CostModel] = None
    #: window-placement policy for every cell ("leader" | "optimized" |
    #: explicit map) — mpi+mpi cells only; see repro.cluster.placement_opt
    placement: Union[str, Mapping[Any, int]] = "leader"
    #: fault schedule injected into every cell (None = fault-free);
    #: requires failure-aware approaches — see repro.cluster.faults
    faults: Optional[Any] = None
    #: filled by :meth:`sweep`: {"cells", "simulated", "cache_hits"}
    last_sweep_stats: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.cluster_factory is None:
            self.cluster_factory = lambda n: minihpc(n, self.ppn)

    def _report(self, cell: Cell, cached: bool = False) -> None:
        if self.progress is not None:
            suffix = "cached" if cached else f"{cell.wall_seconds:.1f}s wall"
            self.progress(
                f"  {cell.approach:<11} {cell.inter}+{cell.intra:<7} "
                f"nodes={cell.nodes:<3} T={cell.time:.4g}s  ({suffix})"
            )

    def sweep(
        self,
        inter: str,
        intras: Iterable[str],
        approaches: Iterable[Tuple[str, Callable[[str], bool]]],
    ) -> List[Cell]:
        """Run the full panel grid.

        ``approaches`` is a list of (approach, intra-filter) pairs; the
        filter reproduces runtime restrictions (the Intel OpenMP stack
        cannot run TSS/FAC2 at the intra level — paper Sec. 5).
        """
        from repro.experiments.parallel import (
            CellCache,
            cell_key,
            run_cells,
            workload_fingerprint,
        )

        specs: List[Tuple[str, str, str, int]] = [
            (approach, inter, intra, nodes)
            for intra in intras
            for approach, supports in approaches
            if supports(intra)
            for nodes in self.node_counts
        ]
        # node counts are the innermost loop: a non-empty grid has them all
        by_nodes = {
            nodes: self.cluster_factory(nodes)
            for nodes in (dict.fromkeys(self.node_counts) if specs else ())
        }
        clusters = [by_nodes[spec[3]] for spec in specs]

        cache = CellCache(self.cache_dir) if self.cache_dir else None
        cells: List[Optional[Cell]] = [None] * len(specs)
        keys: List[Optional[str]] = [None] * len(specs)
        if cache is not None:
            fingerprint = workload_fingerprint(self.workload)
            for index, (spec, cluster) in enumerate(zip(specs, clusters)):
                key = keys[index] = cell_key(
                    fingerprint, cluster, *spec, self.ppn, self.seed,
                    costs=self.costs, placement=self.placement,
                    faults=self.faults,
                )
                cell = cells[index] = cache.get(key)
                if cell is not None:
                    self._report(cell, cached=True)

        missing = [i for i, cell in enumerate(cells) if cell is None]

        def on_result(position: int, cell: Cell) -> None:
            # Streamed as each simulation completes (completion order
            # under a pool) so --verbose shows liveness on long sweeps.
            index = missing[position]
            cells[index] = cell
            if cache is not None:
                cache.put(keys[index], cell)
            self._report(cell)

        run_cells(
            self.workload,
            [specs[i] for i in missing],
            [clusters[i] for i in missing],
            self.ppn,
            self.seed,
            self.jobs,
            on_result=on_result,
            costs=self.costs,
            placement=self.placement,
            faults=self.faults,
        )

        self.last_sweep_stats = {
            "cells": len(specs),
            "simulated": len(missing),
            "cache_hits": len(specs) - len(missing),
        }
        return cells


def series_index(cells: Iterable[Cell]) -> Dict[Tuple[str, str], Dict[int, float]]:
    """Every plotted line at once: ``(approach, intra) -> {nodes: time}``.

    Each line is ordered by node count; of two cells at one node count
    the later one wins.
    """
    index: Dict[Tuple[str, str], Dict[int, float]] = {}
    for c in sorted(cells, key=attrgetter("nodes")):
        line = index.get((c.approach, c.intra))
        if line is None:
            line = index[c.approach, c.intra] = {}
        line[c.nodes] = c.time
    return index


def series(cells: List[Cell], approach: str, intra: str) -> Dict[int, float]:
    """Extract one plotted line: nodes -> parallel time."""
    return series_index(cells).get((approach, intra), {})
