"""Static analysis enforcing the repo's runtime contracts.

A visitor-based analyzer over Python's :mod:`ast` with four rule
families, each policing an invariant the test suite can only spot-check:

* **determinism** (RPR1xx) — all randomness flows through
  :mod:`repro.utils.rng`; no wall-clock reads or hash-order iteration in
  numeric paths (the ``workers=1`` vs ``workers=N`` bitwise guarantee);
  no test asserts on a ratio of two timings.
* **fork-safety** (RPR2xx) — pool tasks write no module-level state;
  memory maps have owned cleanup paths.
* **obs hygiene** (RPR3xx) — spans are ``with``-scoped, logging is
  lazily formatted, metrics go through the installed registry.
* **numeric API** (RPR4xx) — no autograd-bypassing ``.data`` writes
  outside sanctioned layers, no bare ``assert`` in library code.

Entry points: ``python -m repro.cli lint src/`` (text/JSON output,
baseline, exit codes), the pytest self-lint gate
(``tests/lint/test_self_lint.py``), and :func:`lint_source` for
fixture-driven rule tests.  Suppress single findings with
``# repro-lint: disable=RPR103`` (same line) or a
``# repro-lint: disable-file=...`` comment; park pre-existing debt in
the JSON baseline (``--write-baseline``).
"""

from __future__ import annotations

from repro.lint import rules  # noqa: F401  (registers every rule)
from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, Severity, assign_fingerprints
from repro.lint.registry import RULES, Rule, all_rules, get_rule
from repro.lint.runner import LintResult, iter_python_files, lint_source, run_lint

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "RULES",
    "Rule",
    "Severity",
    "all_rules",
    "assign_fingerprints",
    "find_pyproject",
    "get_rule",
    "iter_python_files",
    "lint_source",
    "load_config",
    "run_lint",
]
