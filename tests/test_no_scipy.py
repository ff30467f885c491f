"""SciPy is needed only to build a PSIA workload.

Only PSIA's k-d tree neighbourhood count uses SciPy, so everything else
(the public API, the service, Mandelbrot and synthetic runs, the CLI)
must import and run on a NumPy-only install — which is what the CI docs
job installs.  Each test runs a fresh interpreter, so modules imported
by the rest of the suite cannot mask an eager import.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: installed before anything else: any ``import scipy...`` fails as it
#: would on a NumPy-only install
BLOCK_SCIPY = textwrap.dedent(
    """
    import sys

    class BlockSciPy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)
            return None

    sys.meta_path.insert(0, BlockSciPy())
    """
)


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_mandelbrot_cell_and_cli_run_without_scipy():
    code = BLOCK_SCIPY + textwrap.dedent(
        """
        import repro
        import repro.service
        from repro import cli, minihpc
        from repro.experiments.harness import simulate_cell
        from repro.experiments.workloads import figure_workload

        cell = simulate_cell(
            figure_workload("mandelbrot", "tiny"), minihpc(n_nodes=2, cores_per_node=4),
            "mpi+mpi", "GSS", "SS", nodes=2, ppn=4, seed=0,
        )
        assert cell.time > 0
        assert cli.main(["run", "--app", "mandelbrot", "--nodes", "2", "--ppn", "4",
                         "--scale", "tiny"]) == 0
        try:
            figure_workload("psia", "tiny")
        except ModuleNotFoundError as exc:
            assert "scipy" in str(exc), exc
        else:
            raise AssertionError("PSIA built without SciPy")
        assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
        print("no-scipy ok")
        """
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert "no-scipy ok" in proc.stdout


def test_importing_the_package_leaves_scipy_unloaded():
    proc = run_python(
        "import sys, repro.api, repro.workloads, repro.service\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
