"""Tiny-size runs of every workload through the command line.

Each run must end with the result line described in the README,
carry every declared metric with its declared unit, pass its own
correctness checks, and print the workload's own figures by name.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload's own figures that must appear in the detail line.
DETAIL = {
    "pipeline": {"pipeline_s", "auc"},
    "serve-ingest": {"p50_ms", "p90_ms", "p99_ms", "freshness_p50_s", "freshness_p99_s"},
    "embed-bulk": {"embed_vertices_per_s"},
}
COMMON = {"setup_s", "peak_rss_mb", "fail_frac"}


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def test_spec_matches_the_code():
    import layers
    import run

    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(DETAIL))
def test_tiny_run_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    detail = json.loads(lines[-2])
    assert detail["workload"] == workload
    assert detail["stamp"]["workers"] <= detail["stamp"]["usable_cores"]
    assert set(detail["stamp"]) >= {"commit", "usable_cores", "python", "numpy"}
    want = DETAIL[workload] | ({"fail_frac"} if trace else COMMON)
    assert want <= set(detail["detail"])
    if not trace:
        for metric in result["metrics"].values():
            assert metric["value"] > 0
        printed = "\n".join(lines[:-2])
        for name in want:
            assert f" {name} " in printed
    else:
        assert result["metrics"]["graph.coarsen.weight_residual"]["value"] == 0.0
        assert (ROOT / ".e2ebench" / f"trace-{workload}.json").is_file()


def test_fails_without_the_program(tmp_path):
    """Copied away from the program's source, the benchmark exits non-zero
    without printing a result."""
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = _run("pipeline", 0, cwd=tmp_path, script=bench / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
