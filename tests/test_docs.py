"""Documentation integrity: the link checker and the docs themselves.

The CI ``docs`` job runs ``tools/check_docs.py`` standalone; this test
keeps the same guarantee inside the tier-1 suite and unit-tests the
checker's slug/anchor logic so it cannot silently stop catching rot.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)

ds_spec = importlib.util.spec_from_file_location(
    "check_docstrings", ROOT / "tools" / "check_docstrings.py"
)
check_docstrings = importlib.util.module_from_spec(ds_spec)
ds_spec.loader.exec_module(check_docstrings)


def test_required_documents_exist():
    for name in (
        "README.md",
        "docs/ARCHITECTURE.md",
        "docs/TECHNIQUES.md",
        "docs/PERFORMANCE.md",
        "docs/PLACEMENT.md",
        "docs/ROBUSTNESS.md",
    ):
        assert (ROOT / name).exists(), f"{name} missing"


def test_no_broken_links():
    assert check_docs.check() == []


def test_slugify_matches_github_style():
    assert check_docs.slugify("Worked depth-4 example") == "worked-depth-4-example"
    assert (
        check_docs.slugify(
            "Scheduling level stacks: how `W+X+Y+Z` descends the machine"
        )
        == "scheduling-level-stacks-how-wxyz-descends-the-machine"
    )


def test_checker_flags_breakage(tmp_path, monkeypatch):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# Title\n\n[dead](docs/GONE.md) [bad](README.md#nope)\n"
        "```\n[ignored-in-fence](docs/GONE.md)\n```\n"
    )
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    errors = check_docs.check()
    assert len(errors) == 2
    assert any("GONE.md" in e for e in errors)
    assert any("#nope" in e for e in errors)


def test_slugify_preserves_literal_underscores():
    """GitHub keeps underscores in slugs; only markup chars vanish."""
    assert (
        check_docs.slugify("Calibration: the `CALIBRATED_COSTS` preset")
        == "calibration-the-calibrated_costs-preset"
    )


def test_anchors_exact_match_and_duplicate_suffixes(tmp_path, monkeypatch):
    """Fragments match generated slugs verbatim (GitHub 404s on
    mixed-case fragments) and duplicate headings get -1/-2 suffixes."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# Setup\n\n## Steps\n\n## Steps\n\n"
        "[first](#steps) [second](#steps-1) "
        "[case](#Setup) [ghost](#steps-2)\n"
    )
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    errors = check_docs.check()
    assert len(errors) == 2
    assert any("#Setup" in e for e in errors)  # exact match: case matters
    assert any("#steps-2" in e for e in errors)  # only one duplicate exists


def test_cluster_docstring_coverage_is_clean():
    """The CI docs job runs tools/check_docstrings.py; keep the same
    guarantee in tier 1 so a missing docstring fails fast."""
    assert check_docstrings.check() == []


def test_docstring_checker_flags_gaps(tmp_path, monkeypatch):
    module = tmp_path / "src" / "repro" / "cluster"
    module.mkdir(parents=True)
    bad = module / "costs.py"
    bad.write_text(
        '"""No units mentioned here, and no index convention."""\n'
        "def priced():\n    return 1\n"
    )
    monkeypatch.setattr(check_docstrings, "ROOT", tmp_path)
    # a module nobody listed is checked: coverage is opt-out
    errors = check_docstrings.check()
    assert len(errors) == 3  # units, index convention, missing docstring
    assert any("'priced'" in e for e in errors)
    assert any("unit convention" in e for e in errors)
    assert any("index convention" in e for e in errors)
    monkeypatch.setattr(
        check_docstrings, "EXCLUDED_MODULES", ["src/repro/cluster/costs.py"]
    )
    assert check_docstrings.check() == []
    bad.unlink()  # a stale exclusion is itself an error
    assert check_docstrings.check() == [
        "src/repro/cluster/costs.py: excluded module is missing"
    ]


def test_techniques_doc_covers_the_roster():
    """Every registered technique name appears in docs/TECHNIQUES.md."""
    from repro.core.techniques import TECHNIQUES

    text = (ROOT / "docs" / "TECHNIQUES.md").read_text()
    for name in TECHNIQUES:
        assert f"`{name}`" in text, f"{name} undocumented in TECHNIQUES.md"
