"""Sweep request specs: the JSON surface of the job server.

A :class:`SweepSpec` is a declarative description of one grid sweep —
the same inputs :class:`~repro.experiments.harness.GridRunner` takes as
Python objects, restricted to JSON-expressible forms so a remote client
can post them: workloads are named (``{"app": "mandelbrot", "scale":
"tiny"}``), cost models are preset names, fault schedules are the CLI's
``crash:R@T`` strings.  Everything that
:func:`~repro.experiments.parallel.cell_key` discriminates is here, so
a service cell and a local ``GridRunner`` cell with the same inputs
share one cache entry.

Unit convention: fault-schedule times (``crash:R@T``) are simulated
seconds, as are the cost presets' latencies.  Index convention: a cell
is sized by its node count and ``ppn`` ranks per node; a fault spec's
``R`` is a global rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.cluster.costs import COST_PRESETS, CostModel
from repro.cluster.machine import ClusterSpec, minihpc
from repro.workloads.base import Workload

#: applications a service request may name (the calibrated figure kernels)
KNOWN_APPS = ("mandelbrot", "psia")

#: execution models a service request may name
KNOWN_APPROACHES = ("mpi+mpi", "mpi+openmp", "flat-mpi", "master-worker", "dcc")


class SpecError(ValueError):
    """A sweep request that cannot be executed (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    """Raise :class:`SpecError` with ``message`` unless ``condition``."""
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class SweepSpec:
    """One validated sweep request (the body of ``POST /sweep``).

    The grid is the cross product ``approaches x intras x node_counts``
    under the fixed ``inter`` technique — exactly
    :meth:`repro.experiments.harness.GridRunner.sweep` without the
    per-approach intra filters (a service client states the grid it
    wants explicitly).
    """

    app: str
    scale: str
    inter: str
    intras: Tuple[str, ...]
    approaches: Tuple[str, ...] = ("mpi+mpi",)
    node_counts: Tuple[int, ...] = (2, 4)
    ppn: int = 16
    sockets: int = 1
    numa: int = 1
    seed: int = 0
    costs: Optional[str] = None
    placement: str = "leader"
    faults: Optional[str] = None

    @classmethod
    def from_json(cls, payload: Any) -> "SweepSpec":
        """Validate a decoded JSON body into a spec (or raise SpecError)."""
        _require(isinstance(payload, Mapping), "request body must be a JSON object")
        known = set(cls.__dataclass_fields__)
        # grouped spellings plus the singular aliases of the list fields
        known |= {"workload", "cluster", "intra", "approach", "nodes"}
        unknown = set(payload) - known
        _require(not unknown, f"unknown field(s): {sorted(unknown)}")

        workload = payload.get("workload", {})
        _require(isinstance(workload, Mapping), "'workload' must be an object")
        app = str(workload.get("app", payload.get("app", "mandelbrot"))).lower()
        scale = str(workload.get("scale", payload.get("scale", "tiny"))).lower()
        _require(app in KNOWN_APPS, f"unknown workload app {app!r}; known: {list(KNOWN_APPS)}")
        from repro.experiments.workloads import SCALES

        _require(scale in SCALES, f"unknown scale {scale!r}; known: {sorted(SCALES)}")

        cluster = payload.get("cluster", {})
        _require(isinstance(cluster, Mapping), "'cluster' must be an object")

        def _int(source: Mapping, name: str, default: int, floor: int = 1) -> int:
            value = source.get(name, default)
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= floor,
                f"'{name}' must be an integer >= {floor}",
            )
            return value

        ppn = _int(cluster, "ppn", _int(payload, "ppn", 16))
        sockets = _int(cluster, "sockets", _int(payload, "sockets", 1))
        numa = _int(cluster, "numa", _int(payload, "numa", 1))

        inter = payload.get("inter")
        _require(isinstance(inter, str) and inter, "'inter' (technique stack) is required")
        intras = payload.get("intras", payload.get("intra"))
        if isinstance(intras, str):
            intras = [intras]
        _require(
            isinstance(intras, (list, tuple)) and intras
            and all(isinstance(t, str) and t for t in intras),
            "'intras' must be a non-empty list of technique names",
        )
        approaches = payload.get("approaches", payload.get("approach", ["mpi+mpi"]))
        if isinstance(approaches, str):
            approaches = [approaches]
        _require(
            isinstance(approaches, (list, tuple)) and approaches,
            "'approaches' must be a non-empty list",
        )
        for approach in approaches:
            _require(
                approach in KNOWN_APPROACHES,
                f"unknown approach {approach!r}; known: {list(KNOWN_APPROACHES)}",
            )
        node_counts = payload.get("node_counts", payload.get("nodes", [2, 4]))
        if isinstance(node_counts, int):
            node_counts = [node_counts]
        _require(
            isinstance(node_counts, (list, tuple)) and node_counts
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                    for n in node_counts),
            "'node_counts' must be a non-empty list of integers >= 1",
        )

        seed = payload.get("seed", 0)
        _require(isinstance(seed, int) and not isinstance(seed, bool), "'seed' must be an integer")
        costs = payload.get("costs")
        if costs is not None:
            _require(
                isinstance(costs, str) and costs in COST_PRESETS,
                f"'costs' must be one of {sorted(COST_PRESETS)}",
            )
        placement = payload.get("placement", "leader")
        _require(
            placement in ("leader", "optimized"),
            "'placement' must be 'leader' or 'optimized'",
        )
        faults = payload.get("faults")
        if faults is not None:
            _require(isinstance(faults, str) and faults, "'faults' must be a spec string")
            from repro.cluster.faults import FaultModel

            try:
                FaultModel.parse(faults)
            except ValueError as error:
                raise SpecError(f"bad 'faults' spec: {error}") from error

        return cls(
            app=app,
            scale=scale,
            inter=inter,
            intras=tuple(intras),
            approaches=tuple(approaches),
            node_counts=tuple(node_counts),
            ppn=ppn,
            sockets=sockets,
            numa=numa,
            seed=seed,
            costs=costs,
            placement=placement,
            faults=faults,
        )

    # ------------------------------------------------------------------
    # resolution to simulator objects (server- and worker-side)
    # ------------------------------------------------------------------
    def workload(self) -> Workload:
        """Build (or fetch the per-process cached) named workload."""
        from repro.experiments.workloads import figure_workload

        return figure_workload(self.app, self.scale)

    def cluster(self, nodes: int) -> ClusterSpec:
        """The homogeneous cluster this sweep simulates at ``nodes``."""
        return minihpc(
            nodes, self.ppn, sockets_per_node=self.sockets, numa_per_socket=self.numa
        )

    def cost_model(self) -> Optional[CostModel]:
        """Resolve the preset name (``None``/"default" = package default)."""
        if self.costs is None or self.costs == "default":
            return None
        return COST_PRESETS[self.costs]

    def fault_model(self):
        """Parse the fault schedule string (``None`` = fault-free)."""
        if self.faults is None:
            return None
        from repro.cluster.faults import FaultModel

        return FaultModel.parse(self.faults)

    def grid(self) -> List[Tuple[str, str, str, int]]:
        """Expand to ``(approach, inter, intra, nodes)`` cell specs."""
        return [
            (approach, self.inter, intra, nodes)
            for approach in self.approaches
            for intra in self.intras
            for nodes in self.node_counts
        ]

    def cell_keys(self) -> List[str]:
        """Content-addressed key per grid cell, in :meth:`grid` order.

        Uses the same :func:`~repro.experiments.parallel.cell_key`
        digest as ``GridRunner``, so service results and local sweeps
        share cache entries.
        """
        from repro.experiments.parallel import cell_key, workload_fingerprint

        fingerprint = workload_fingerprint(self.workload())
        costs = self.cost_model()
        faults = self.fault_model()
        return [
            cell_key(
                fingerprint, self.cluster(nodes), approach, inter, intra,
                nodes, self.ppn, self.seed,
                costs=costs, placement=self.placement, faults=faults,
            )
            for approach, inter, intra, nodes in self.grid()
        ]
