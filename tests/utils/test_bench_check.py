"""The bench regression sentinel: ``check_report`` / ``hotpaths.py --check``.

Unit tests drive :func:`check_report` on synthetic reports (row
matching, tolerance bands, honesty skips); the command-line tests run
``benchmarks/hotpaths.py``'s ``main`` on a shrunken workload grid,
including a deliberately slowed hot path that must flip the exit code.
"""

import copy

import pytest

from benchmarks import hotpaths as bench
from benchmarks.hotpaths import (
    CHECK_MIN_DELTA_S,
    CHECK_TOLERANCE,
    SCHEMA,
    check_report,
    render_check_table,
)


def _report(**sections) -> dict:
    """A minimal v5-shaped report with the given benchmark sections."""
    return {
        "schema": SCHEMA,
        "git_commit": "a" * 40,
        "mode": "quick",
        "seed": 0,
        "benchmarks": sections,
    }


def _row(after_s: float, **identity) -> dict:
    return {"before_s": after_s * 2, "after_s": after_s, "speedup": 2.0, **identity}


class TestCheckReport:
    def test_identical_reports_have_no_regressions(self):
        rep = _report(
            embed_all=[_row(0.5, graph={"num_users": 9, "num_items": 4, "num_edges": 20})],
            kmeans=[_row(0.2, variant="single_pass", n=50, dim=4, k=3)],
        )
        result = check_report(rep, copy.deepcopy(rep))
        assert result["regressions"] == []
        assert result["checked"] == 2
        assert result["skipped"] == 0 and result["unmatched"] == 0

    def test_slowdown_beyond_tolerance_regresses(self):
        base = _report(kmeans=[_row(0.2, variant="single_pass", n=50, dim=4, k=3)])
        cur = copy.deepcopy(base)
        cur["benchmarks"]["kmeans"][0]["after_s"] = 0.5  # +150%, +300 ms
        result = check_report(cur, base)
        assert len(result["regressions"]) == 1
        assert "single_pass" in result["regressions"][0]
        entry = result["rows"][0]
        assert entry["status"] == "regression"
        assert entry["delta_pct"] == pytest.approx(150.0)

    def test_slowdown_within_tolerance_passes(self):
        base = _report(kmeans=[_row(0.2, variant="single_pass", n=50, dim=4, k=3)])
        cur = copy.deepcopy(base)
        cur["benchmarks"]["kmeans"][0]["after_s"] = 0.2 * (1 + CHECK_TOLERANCE) * 0.99
        result = check_report(cur, base)
        assert result["regressions"] == []

    def test_absolute_floor_shields_microsecond_rows(self):
        # 5x slower but only +0.4 ms — scheduler noise, never a regression.
        base = _report(kmeans=[_row(0.0001, variant="single_pass", n=50, dim=4, k=3)])
        cur = copy.deepcopy(base)
        cur["benchmarks"]["kmeans"][0]["after_s"] = 0.0005
        assert 0.0005 - 0.0001 < CHECK_MIN_DELTA_S
        result = check_report(cur, base)
        assert result["regressions"] == []

    def test_degraded_row_skipped_not_failed(self):
        base = _report(
            parallel=[
                _row(0.1, variant="kmeans_restarts", n=50, k=3, workers=4,
                     workers_effective=4, degraded=False)
            ]
        )
        cur = copy.deepcopy(base)
        row = cur["benchmarks"]["parallel"][0]
        row.update(after_s=5.0, degraded=True, workers_effective=1)
        result = check_report(cur, base)
        assert result["regressions"] == []
        assert result["skipped"] == 1
        assert result["rows"][0]["status"] == "skipped"
        assert "degraded" in result["rows"][0]["reason"]

    def test_workers_effective_mismatch_skipped(self):
        base = _report(
            parallel=[
                _row(0.1, variant="kmeans_restarts", n=50, k=3, workers=4,
                     workers_effective=4, degraded=False)
            ]
        )
        cur = copy.deepcopy(base)
        cur["benchmarks"]["parallel"][0].update(after_s=5.0, workers_effective=2)
        result = check_report(cur, base)
        assert result["regressions"] == []
        assert "workers_effective" in result["rows"][0]["reason"]

    def test_grid_mismatch_rows_are_unmatched_not_failed(self):
        # quick-vs-full grids: extra current rows are "new", baseline-only
        # rows are "missing"; neither fails the check.
        base = _report(
            embed_all=[
                _row(0.5, graph={"num_users": 9, "num_items": 4, "num_edges": 20}),
                _row(9.0, graph={"num_users": 900, "num_items": 400, "num_edges": 2000}),
            ]
        )
        cur = _report(
            embed_all=[
                _row(0.5, graph={"num_users": 9, "num_items": 4, "num_edges": 20}),
                _row(7.0, graph={"num_users": 77, "num_items": 40, "num_edges": 200}),
            ]
        )
        result = check_report(cur, base)
        assert result["regressions"] == []
        assert result["unmatched"] == 2
        statuses = {e["status"] for e in result["rows"]}
        assert {"ok", "new", "missing"} <= statuses

    def test_serving_rows_match_by_identity(self):
        # The v6 serving section round-trips: replay / delta_refresh /
        # run_day rows match themselves via their identity fields.
        rep = _report(
            serving=[
                _row(0.4, graph={"num_users": 600, "num_items": 400,
                                 "num_edges": 3600},
                     variant="replay", k=10, requests=400,
                     req_per_sec=1000.0, hit_rate=0.7,
                     p50_ms=0.1, p99_ms=0.5),
                _row(0.3, graph={"num_users": 600, "num_items": 400,
                                 "num_edges": 3600},
                     variant="delta_refresh", delta_edges=2, batch=128,
                     refresh_mode="delta", recompute_fraction=0.5),
                _row(0.2, graph={"num_users": 600, "num_items": 400,
                                 "num_edges": 3600},
                     variant="run_day", visitors=150),
            ]
        )
        result = check_report(rep, copy.deepcopy(rep))
        assert result["regressions"] == []
        assert result["checked"] == 3
        assert result["unmatched"] == 0
        assert all(e["status"] == "ok" for e in result["rows"])

    def test_slowed_serving_row_regresses(self):
        base = _report(
            serving=[
                _row(0.4, graph={"num_users": 600, "num_items": 400,
                                 "num_edges": 3600},
                     variant="replay", k=10, requests=400),
            ]
        )
        cur = copy.deepcopy(base)
        cur["benchmarks"]["serving"][0]["after_s"] = 1.0  # +150%, +600 ms
        result = check_report(cur, base)
        assert len(result["regressions"]) == 1
        assert "replay" in result["regressions"][0]
        assert result["rows"][0]["status"] == "regression"

    def test_negative_tolerance_rejected(self):
        rep = _report(kmeans=[_row(0.2, variant="single_pass", n=50, dim=4, k=3)])
        with pytest.raises(ValueError):
            check_report(rep, rep, tolerance=-0.1)


class TestOversubscribedRows:
    """Parallel rows asking for more workers than usable cores are flagged
    ``degraded``, so the sentinel skips them instead of timing the
    scheduler; rows within the usable cores stay checked."""

    @pytest.mark.parametrize("workers,usable,degraded", [
        (1, 1, False), (2, 2, False), (2, 4, False), (4, 2, True), (2, 1, True),
    ])
    def test_flag_follows_affinity_mask(self, monkeypatch, workers, usable, degraded):
        import os

        monkeypatch.setitem(bench.GRAPH_SIZES, "quick", [(40, 30, 120)])
        monkeypatch.setitem(bench.KMEANS_SIZES, "quick", [(60, 4, 5)])
        monkeypatch.setitem(bench.PARALLEL_SCORE_SIZES, "quick", (32, 12, 8))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)))
        rows = bench._bench_parallel("quick", seed=0, repeats=1, workers=workers)
        assert {row["degraded"] for row in rows} == {degraded}
        assert {row["workers_effective"] for row in rows} == {min(workers, usable)}
        result = check_report(_report(parallel=rows), _report(parallel=rows))
        assert result["skipped"] == (len(rows) if degraded else 0)
        assert result["checked"] == (0 if degraded else len(rows))


class TestRenderCheckTable:
    def test_table_lists_regressions_first_with_deltas(self):
        base = _report(
            kmeans=[_row(0.2, variant="single_pass", n=50, dim=4, k=3)],
            embed_all=[_row(0.5, graph={"num_users": 9, "num_items": 4, "num_edges": 20})],
        )
        cur = copy.deepcopy(base)
        cur["benchmarks"]["kmeans"][0]["after_s"] = 0.8
        text = render_check_table(check_report(cur, base))
        lines = text.splitlines()
        assert lines[2].startswith("REGRESSION")
        assert "+300.0%" in lines[2]
        assert "1 regression(s)" in lines[-1]
        assert "baseline commit aaaaaaaaaaaa" in lines[0]

    def test_skip_reason_rendered(self):
        base = _report(
            parallel=[
                _row(0.1, variant="kmeans_restarts", n=50, k=3, workers=4,
                     workers_effective=4, degraded=True)
            ]
        )
        text = render_check_table(check_report(copy.deepcopy(base), base))
        assert "skipped (degraded host)" in text


class TestCliBenchCheck:
    @pytest.fixture()
    def tiny_grids(self, monkeypatch):
        monkeypatch.setitem(bench.GRAPH_SIZES, "quick", [(40, 30, 120)])
        monkeypatch.setitem(bench.KMEANS_SIZES, "quick", [(60, 4, 5)])
        monkeypatch.setitem(bench.SCORE_SIZES, "quick", [(40, 30, 5, 10)])
        monkeypatch.setitem(bench.PARALLEL_SCORE_SIZES, "quick", (32, 12, 8))
        monkeypatch.setitem(
            bench.SHARD_SIZES,
            "quick",
            [{"users": 120, "items": 90, "clusters": 6, "shards": 3, "degree": 4.0}],
        )

    def test_check_against_own_baseline_exits_zero(self, tiny_grids, tmp_path, capsys,
                                                   monkeypatch):
        out = tmp_path / "bench.json"
        assert bench.main(["--mode", "quick", "--repeats", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        # The check re-measures the saved report itself, not a second
        # timed run, so the load -> check -> render -> exit path carries
        # no wall-clock noise (real slowdowns: the test below).
        monkeypatch.setattr(bench, "bench_hotpaths", lambda *a, **k: bench.load_report(out))
        code = bench.main(["--mode", "quick", "--repeats", "1", "--check", "--baseline", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "bench --check" in printed
        assert "ok: no regressions" in printed

    def test_slowed_hot_path_flips_exit_code(self, tiny_grids, tmp_path, capsys,
                                             monkeypatch):
        import time

        from repro.serving.recommend import ScoreTableRecommender

        out = tmp_path / "bench.json"
        assert bench.main(["--mode", "quick", "--repeats", "1", "--out", str(out)]) == 0
        capsys.readouterr()

        slow = ScoreTableRecommender.recommend

        def crippled(self, user, k):
            time.sleep(0.002)
            return slow(self, user, k)

        monkeypatch.setattr(ScoreTableRecommender, "recommend", crippled)
        code = bench.main(["--mode", "quick", "--repeats", "1", "--check", "--baseline", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION" in captured.out
        assert "score_topk" in captured.out
        assert "row(s) slower than baseline" in captured.err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        code = bench.main(
            ["--mode", "quick", "--repeats", "1", "--check", "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_bench_defaults(self):
        args = bench.build_parser().parse_args([])
        assert args.mode == "quick"
        assert args.out == str(bench.ROOT / "BENCH_hotpaths.json")
        assert args.repeats == 3

    def test_bench_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            bench.build_parser().parse_args(["--mode", "huge"])

    def test_bench_writes_report(self, tiny_grids, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setitem(
            bench.SERVING_SIZES,
            "quick",
            {
                "graph": (50, 40, 200),
                "requests": 60,
                "k": 5,
                "visitors": 25,
                "delta_edges": 2,
                "refresh_batch": 16,
            },
        )
        out = tmp_path / "bench.json"
        assert bench.main(["--mode", "quick", "--repeats", "1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "hot-path benchmark" in printed
        assert f"wrote {out}" in printed
        data = json.loads(out.read_text())
        assert data["schema"] == bench.SCHEMA
        assert "git_commit" in data
        assert set(data["benchmarks"]) == {
            "embed_all", "train_epoch", "weighted_sampling", "kmeans",
            "parallel", "score_topk", "shard", "serving",
        }
        serving_variants = {
            row["variant"] for row in data["benchmarks"]["serving"]
        }
        assert serving_variants == {"replay", "delta_refresh", "run_day"}
        for row in data["benchmarks"]["parallel"]:
            assert row["workers_effective"] >= 1
