#!/usr/bin/env python
"""Docstring-check the ``repro.cluster`` machine-model modules and the
engine, MPI world/point-to-point/window, execution-model, OpenMP,
metrics, trace, cell-cache, table and workload modules listed in
``CHECKED_MODULES``.

The cluster layer is the package's public vocabulary for hardware,
costs and placement, so its API documentation must not rot.  This
checker parses the modules with ``ast`` (no imports needed) and
enforces:

* every module has a docstring, and that docstring states the unit
  convention (mentions ``second``) and the index convention (mentions
  ``rank`` or ``node index``) — the two ambiguities that have caused
  real bugs in this codebase;
* every public class, function, method and property (name not starting
  with ``_``) has a docstring; ``__init__`` and other dunders are
  exempt (the class docstring covers construction).

Usage (from the repository root)::

    python tools/check_docstrings.py

Exits 1 and prints one ``file:line`` diagnostic per violation
otherwise.  Stdlib only.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import List

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: modules under the docstring contract (repo-relative paths)
CHECKED_MODULES = [
    "src/repro/cluster/__init__.py",
    "src/repro/cluster/costs.py",
    "src/repro/cluster/faults.py",
    "src/repro/cluster/interconnect.py",
    "src/repro/cluster/machine.py",
    "src/repro/cluster/noise.py",
    "src/repro/cluster/placement_opt.py",
    "src/repro/cluster/topology.py",
    "src/repro/api.py",
    "src/repro/core/chunking.py",
    "src/repro/core/hierarchy.py",
    "src/repro/core/metrics.py",
    "src/repro/core/technique_base.py",
    "src/repro/core/trace.py",
    "src/repro/experiments/ablations.py",
    "src/repro/experiments/figures.py",
    "src/repro/experiments/harness.py",
    "src/repro/experiments/intext.py",
    "src/repro/experiments/parallel.py",
    "src/repro/experiments/tables.py",
    "src/repro/experiments/workloads.py",
    "src/repro/models/base.py",
    "src/repro/models/dcc.py",
    "src/repro/models/flat_mpi.py",
    "src/repro/models/master_worker.py",
    "src/repro/models/mpi_mpi.py",
    "src/repro/models/mpi_openmp.py",
    "src/repro/native/runner.py",
    "src/repro/service/jobs.py",
    "src/repro/service/server.py",
    "src/repro/service/spec.py",
    "src/repro/sim/cohorts.py",
    "src/repro/sim/engine.py",
    "src/repro/sim/primitives.py",
    "src/repro/sim/resources.py",
    "src/repro/smpi/p2p.py",
    "src/repro/smpi/rma.py",
    "src/repro/smpi/shm.py",
    "src/repro/smpi/world.py",
    "src/repro/somp/schedule.py",
    "src/repro/somp/team.py",
    "src/repro/workloads/__init__.py",
    "src/repro/workloads/base.py",
    "src/repro/workloads/mandelbrot.py",
    "src/repro/workloads/psia.py",
]

#: every checked module's docstring corpus must state these conventions
UNIT_TOKEN = "second"
INDEX_TOKENS = ("rank", "node index")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_node(
    node: ast.AST, path: pathlib.Path, errors: List[str], owner: str = ""
) -> None:
    """Recurse over public defs, flagging any without a docstring."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = child.name
            if not _is_public(name):
                continue
            qualified = f"{owner}{name}"
            if ast.get_docstring(child) is None:
                kind = "class" if isinstance(child, ast.ClassDef) else "function"
                errors.append(
                    f"{path.relative_to(ROOT)}:{child.lineno}: "
                    f"public {kind} {qualified!r} has no docstring"
                )
            if isinstance(child, ast.ClassDef):
                _check_node(child, path, errors, owner=f"{qualified}.")
            # nested defs inside functions are implementation detail


def check() -> List[str]:
    """Return one diagnostic per violation across all checked modules."""
    errors: List[str] = []
    for rel in CHECKED_MODULES:
        path = ROOT / rel
        if not path.exists():
            errors.append(f"{rel}: checked module is missing")
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        module_doc = ast.get_docstring(tree)
        if module_doc is None:
            errors.append(f"{rel}:1: module has no docstring")
            continue
        lowered = module_doc.lower()
        if UNIT_TOKEN not in lowered:
            errors.append(
                f"{rel}:1: module docstring must state the unit convention "
                f"(mention {UNIT_TOKEN!r}; all latencies are seconds)"
            )
        if not any(token in lowered for token in INDEX_TOKENS):
            errors.append(
                f"{rel}:1: module docstring must state the index convention "
                f"(mention one of {INDEX_TOKENS}; ranks vs node indices)"
            )
        _check_node(tree, path, errors)
    return errors


def main() -> int:
    """CLI entry point: print violations, exit 1 if any."""
    errors = check()
    for error in errors:
        print(error)
    print(
        f"checked {len(CHECKED_MODULES)} modules for docstring coverage: "
        f"{len(errors)} violation(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
