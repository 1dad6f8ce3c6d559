"""End-to-end tests for ``repro lint`` (output formats, baseline, exits)."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main

DIRTY = """
import time


def stamp(a):
    assert a
    return time.time()
"""

CLEAN = """
def double(x):
    return 2 * x
"""


@pytest.fixture
def project(tmp_path, monkeypatch):
    """An isolated project dir so the repo's own pyproject/baseline stay out."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint]\nbaseline = \"baseline.json\"\n"
    )
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    monkeypatch.chdir(tmp_path)

    def write(name: str, source: str):
        target = pkg / name
        target.write_text(textwrap.dedent(source).lstrip())
        return target

    return write


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        project("mod.py", CLEAN)
        assert main(["lint", "src"]) == 0
        assert "0 fresh finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, project, capsys):
        project("mod.py", DIRTY)
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "RPR103" in out
        assert "RPR402" in out

    def test_missing_path_exits_two(self, project, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_select_code_exits_two(self, project, capsys):
        project("mod.py", CLEAN)
        assert main(["lint", "src", "--select", "RPR999"]) == 2
        assert "unknown rule codes" in capsys.readouterr().err


class TestOutput:
    def test_text_output_shows_location_and_source(self, project, capsys):
        project("mod.py", DIRTY)
        main(["lint", "src"])
        out = capsys.readouterr().out
        assert "src/pkg/mod.py:5:" in out  # path:line prefix
        assert "assert a" in out  # offending source echoed

    def test_json_output_is_parseable(self, project, capsys):
        project("mod.py", DIRTY)
        assert main(["lint", "src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        codes = sorted(f["code"] for f in payload["fresh"])
        assert codes == ["RPR103", "RPR402"]
        assert all(f["fingerprint"] for f in payload["fresh"])

    def test_list_rules_prints_table(self, project, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR101", "RPR202", "RPR301", "RPR401"):
            assert code in out


class TestSelection:
    def test_select_narrows_to_one_rule(self, project, capsys):
        project("mod.py", DIRTY)
        assert main(["lint", "src", "--select", "RPR402"]) == 1
        payload_out = capsys.readouterr().out
        assert "RPR402" in payload_out
        assert "RPR103" not in payload_out

    def test_disable_drops_a_rule(self, project, capsys):
        project("mod.py", DIRTY)
        assert main(["lint", "src", "--disable", "RPR103,RPR402"]) == 0


class TestBaselineFlow:
    def test_write_baseline_then_clean(self, project, capsys, tmp_path):
        project("mod.py", DIRTY)
        assert main(["lint", "src", "--write-baseline"]) == 0
        written = capsys.readouterr().out
        assert "wrote 2 finding(s)" in written
        assert (tmp_path / "baseline.json").is_file()

        assert main(["lint", "src"]) == 0
        assert "2 baselined" in capsys.readouterr().out

    def test_no_baseline_flag_surfaces_everything(self, project, capsys):
        project("mod.py", DIRTY)
        assert main(["lint", "src", "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "src", "--no-baseline"]) == 1

    def test_stale_entry_reported_after_fix(self, project, capsys):
        project("mod.py", DIRTY)
        assert main(["lint", "src", "--write-baseline"]) == 0
        capsys.readouterr()

        project("mod.py", CLEAN)
        assert main(["lint", "src"]) == 0
        out = capsys.readouterr().out
        assert "stale baseline" in out

    def test_corrupt_baseline_exits_two(self, project, capsys, tmp_path):
        project("mod.py", CLEAN)
        (tmp_path / "baseline.json").write_text("{not json")
        assert main(["lint", "src"]) == 2
        assert "cannot read baseline" in capsys.readouterr().err
