"""End-to-end HiGNN benchmark: run one workload, check it, print the result.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload pipeline --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again under :mod:`repro.obs` with per-layer timers and prints
the per-layer metrics instead, writing the spans to
``.e2ebench/trace-<workload>.json`` when the run ends.  The last line
of standard output is the JSON result; the lines above it are for
people.  See ``e2ebench/README.md`` for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".e2ebench"

# End-to-end metrics every workload reports (see README for what each
# one means on each workload).
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "latency_ms": "ms"}
# The workloads' own figures, printed for people by these names.
DETAIL_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "auc": "ratio",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "freshness_p50_s": "s",
    "freshness_p99_s": "s",
    "embed_vertices_per_s": "vertices/s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
WORKLOAD_NAMES = ("pipeline", "serve-ingest", "embed-bulk")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run one workload; returns the result object (last output line)."""
    import harness
    import layers
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    tempfile.tempdir = str(tmp)  # keeps the library's temp files in the checkout
    trace = layers.Tracing() if args.trace else None
    try:
        outcome = workloads.WORKLOADS[args.workload](args.size, args.seed, args.seconds, trace, tmp)
        if trace is not None:
            trace.write(SCRATCH / f"trace-{args.workload}.json")
    finally:
        from repro.parallel import shutdown_pools

        shutdown_pools()
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)

    units = {n: u for n, (u, _) in layers.PER_LAYER.items()} if args.trace else E2E_UNITS
    failures = list(outcome.failures)
    failed = outcome.failed
    metrics = {}
    for name, unit in units.items():
        value = float(outcome.metrics[name])
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite")
            failed += 1
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    detail = dict(outcome.detail)
    if not args.trace:
        detail["setup_s"] = outcome.metrics["setup_s"]
        detail["peak_rss_mb"] = outcome.metrics["peak_rss_mb"]
    detail["fail_frac"] = failed / max(outcome.attempted, 1)
    for name, value in detail.items():
        if name in DETAIL_UNITS:
            print(f"{args.workload:>12}  {name:<22} {value:>14.6g} {DETAIL_UNITS[name]}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "stamp": harness.stamp(outcome.workers),
                "detail": detail,
                "failures": failures[:100],
            },
            default=float,
        )
    )
    return {
        "correct": failed == 0,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: program source not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread per process, set before numpy loads.  Parallelism
    # is the program's own worker pool, capped at usable cores;
    # multithreaded BLAS on top of it oversubscribes the cores and turns
    # latency tails into scheduler noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
