"""CLI contract for ``repro lint``: exit codes 0/1/2, output formats, and the
acceptance gate that the repository's own ``src`` tree lints clean."""

import json
import pathlib

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    # The default result cache is written to the working directory.
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def dirty_file(tmp_path):
    p = tmp_path / "dirty.py"
    p.write_text("import pickle\n")
    return p


@pytest.fixture
def clean_file(tmp_path):
    p = tmp_path / "clean.py"
    p.write_text("VALUE = 1\n")
    return p


def test_exit_zero_on_clean_tree(clean_file, capsys):
    assert main(["lint", str(clean_file)]) == 0
    assert "clean: 0 findings in 1 file(s)" in capsys.readouterr().out


def test_exit_one_on_findings(dirty_file, capsys):
    assert main(["lint", str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "RPL005" in out
    assert "dirty.py:1:" in out


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "ghost")]) == 2
    assert "internal error" in capsys.readouterr().err


def test_exit_two_on_unknown_select(clean_file, capsys):
    assert main(["lint", "--select", "RPL999", str(clean_file)]) == 2
    assert "RPL999" in capsys.readouterr().err


def test_json_format_parses(dirty_file, capsys):
    assert main(["lint", "--format", "json", str(dirty_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert doc["summary"]["by_code"] == {"RPL005": 1}


def test_select_filters_rules(tmp_path, capsys):
    p = tmp_path / "two.py"
    p.write_text("import pickle\ndef f(x=[]):\n    return x\n")
    assert main(["lint", "--select", "RPL006", str(p)]) == 1
    out = capsys.readouterr().out
    assert "RPL006" in out and "RPL005" not in out


def test_repository_src_tree_is_clean(capsys):
    """Acceptance criterion: `repro lint src` exits 0 on the final tree."""
    assert main(["lint", str(REPO_ROOT / "src")]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out
