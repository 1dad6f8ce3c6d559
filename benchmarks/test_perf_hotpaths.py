"""Hot-path perf benchmark — the Section III-D scalability claim.

Times the three loops the paper's complexity analysis names (recursive
neighbour embedding, neighbour sampling, K-means) with their retained
reference implementations ("before") against the batch-efficient
rewrites ("after"), and writes a quick-mode report to a temporary
directory, leaving the tracked ``BENCH_hotpaths.json`` alone.
``python benchmarks/hotpaths.py`` writes the report standalone;
``--mode full --workers 2`` regenerates the tracked record.

The v3 ``parallel`` section is smoked here with a 2-worker pool under a
hard map timeout so a wedged pool fails the run instead of hanging it.
No parallel *speedup* is asserted: fan-out can only win when
``os.cpu_count()`` exceeds the pool size, which CI boxes don't promise
(the tracked report records the honest number either way).

The v6 ``serving`` section replays a zipf request stream through the
streaming frontend (cached vs uncached), times a delta refresh against a
full re-embed of the mutated graph, and times the vectorised serving-day
simulation against its per-impression reference.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from hotpaths import (
    SCHEMA,
    bench_hotpaths,
    check_report,
    load_report,
    render_check_table,
    render_report,
    write_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_hotpath_bench_writes_report(report, tmp_path):
    result = bench_hotpaths("quick", seed=0, repeats=3, workers=2)
    path = write_report(result, tmp_path / "BENCH_hotpaths.json")
    report("hotpath_bench", render_report(result))

    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA
    assert "git_commit" in data
    assert data["cpu_count"] >= 1
    benches = data["benchmarks"]
    assert set(benches) == {
        "embed_all",
        "train_epoch",
        "weighted_sampling",
        "kmeans",
        "parallel",
        "score_topk",
        "shard",
        "serving",
    }
    for rows in benches.values():
        assert rows
        for row in rows:
            assert row["before_s"] > 0 and row["after_s"] > 0

    # v2 counter-derived throughput: present and nonzero on every row of
    # the instrumented hot paths.
    for row in benches["embed_all"]:
        assert row["vertices_per_sec"] > 0
    for row in benches["weighted_sampling"]:
        assert row["samples_per_sec"] > 0

    # The parallel row ran the store-backed embed at workers=2.
    for row in benches["parallel"]:
        assert row["workers"] == 2

    # Regression guards, deliberately looser than the typical speedups
    # (>5x embed_all, >10x sampling here) so noisy CI boxes don't flake.
    assert benches["embed_all"][-1]["speedup"] > 1.5
    assert benches["weighted_sampling"][-1]["speedup"] > 2.0
    assert benches["train_epoch"][-1]["speedup"] > 1.2
    # Lazy top-k beats ranking the whole table up front.
    assert benches["score_topk"][-1]["speedup"] > 1.0

    # v6 serving section: one row per streaming-stack hot path, with the
    # load-bench extras on the replay row.  No speedups asserted (cache
    # wins depend on the zipf draw and host), only that the numbers are
    # recorded and sane.
    variants = {row["variant"] for row in benches["serving"]}
    assert variants == {"replay", "delta_refresh", "run_day"}
    replay = next(r for r in benches["serving"] if r["variant"] == "replay")
    assert replay["req_per_sec"] > 0
    assert 0.0 <= replay["hit_rate"] <= 1.0
    assert replay["p99_ms"] >= replay["p50_ms"] >= 0.0
    refresh = next(
        r for r in benches["serving"] if r["variant"] == "delta_refresh"
    )
    assert refresh["refresh_mode"] in {"delta", "full"}
    assert 0.0 <= refresh["recompute_fraction"] <= 1.0


def test_bench_check_against_committed_baseline(request, report):
    """Opt-in regression sentinel: ``pytest benchmarks/ --check-baseline``.

    Re-times the quick grid and compares it to the committed
    ``BENCH_hotpaths.json`` with :func:`check_report` — the same
    comparison ``benchmarks/hotpaths.py --check`` runs.  Rows only present
    in the full-mode record stay unmatched (not failures), and degraded /
    ``workers_effective``-mismatched rows are skipped, so this is safe
    on any host that can run the quick grid.
    """
    if not request.config.getoption("--check-baseline"):
        pytest.skip("pass --check-baseline to compare against BENCH_hotpaths.json")
    baseline = load_report(REPO_ROOT / "BENCH_hotpaths.json")
    current = bench_hotpaths(
        "quick",
        seed=baseline.get("seed", 0),
        repeats=3,
        workers=baseline.get("workers") or 2,
    )
    result = check_report(current, baseline)
    report("bench_check", render_check_table(result))
    assert not result["regressions"], (
        f"{len(result['regressions'])} hot path(s) regressed vs committed "
        f"baseline:\n" + render_check_table(result)
    )
