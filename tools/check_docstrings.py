#!/usr/bin/env python
"""Docstring-check every module under ``src/``, except those listed in
``EXCLUDED_MODULES`` (none today), so a new module is covered by default.

The package's public vocabulary for hardware, costs, schedules and
results must not rot.  This checker parses the modules with ``ast`` (no
imports needed) and enforces:

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

#: repo-relative paths of ``src`` modules exempt from the contract;
#: every other module under ``src/`` is checked, a new one included
EXCLUDED_MODULES: List[str] = []

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


def checked_modules() -> List[str]:
    """Every ``.py`` file under ``src/`` not in :data:`EXCLUDED_MODULES`."""
    paths = (path.relative_to(ROOT).as_posix() for path in (ROOT / "src").rglob("*.py"))
    return sorted(rel for rel in paths if rel not in EXCLUDED_MODULES)


def check() -> List[str]:
    """Return one diagnostic per violation across all checked modules."""
    errors = [
        f"{rel}: excluded module is missing"
        for rel in EXCLUDED_MODULES
        if not (ROOT / rel).exists()
    ]
    for rel in checked_modules():
        path = ROOT / rel
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
        f"checked {len(checked_modules())} modules for docstring coverage: "
        f"{len(errors)} violation(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
