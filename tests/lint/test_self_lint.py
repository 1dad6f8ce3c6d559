"""The self-lint gate: ``src/`` must be clean against the checked-in baseline.

This is the CI teeth of the analyzer — any fresh finding in the library
fails this test, and any stale baseline entry (a finding that was fixed
but whose entry lingers) fails it too, keeping the baseline honest in
both directions.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Baseline, load_config, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.lint


@pytest.fixture(scope="module")
def self_lint_result():
    config = load_config(REPO_ROOT)
    baseline_path = config.baseline_path()
    baseline = (
        Baseline.load(baseline_path)
        if baseline_path is not None and baseline_path.is_file()
        else None
    )
    return run_lint([str(REPO_ROOT / "src")], config=config, baseline=baseline)


def test_src_has_no_fresh_findings(self_lint_result):
    rendered = "\n".join(f.render() for f in self_lint_result.fresh)
    assert self_lint_result.fresh == [], (
        f"fresh lint findings in src/ — fix them or justify a baseline "
        f"entry:\n{rendered}"
    )


def test_baseline_has_no_stale_entries(self_lint_result):
    stale = self_lint_result.stale_baseline
    rendered = "\n".join(
        f"{entry.get('path')}:{entry.get('line')} {entry.get('code')}"
        for entry in stale
    )
    assert stale == [], (
        f"stale baseline entries (their findings were fixed) — shrink "
        f"LINT_BASELINE.json:\n{rendered}"
    )


def test_gate_actually_walked_the_tree(self_lint_result):
    # Guard against a silently-empty walk making the gate vacuous.
    assert self_lint_result.files_checked > 50


def test_tests_assert_on_no_timing_ratio():
    # RPR105 polices tests/, which the src/ gate above does not walk.
    result = run_lint([str(REPO_ROOT / "tests")], config=load_config(REPO_ROOT), enabled={"RPR105"})
    assert [f.render() for f in result.fresh] == []
    assert result.files_checked > 50
