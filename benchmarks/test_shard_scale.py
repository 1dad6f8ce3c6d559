"""Million-vertex out-of-core scaling record (ISSUE acceptance run).

Streams the tracked full-mode world (~10^6 vertices) straight to shard
files and embeds it over mmap blocks in a subprocess, so the measured
peak RSS is the sharded path's own.  Marked ``slow``: this is the run
whose numbers land in ``BENCH_hotpaths.json``'s ``shard`` section and
EXPERIMENTS.md — deselect with ``-m 'not slow'``.
"""

from __future__ import annotations

import pytest

from hotpaths import SHARD_SIZES, _run_shard_child, dense_footprint_mb


@pytest.mark.slow
def test_million_vertex_world_stays_out_of_core(report):
    spec = SHARD_SIZES["full"][-1]
    assert spec.get("subprocess"), "full grid must end with the 10^6 spec"
    result = _run_shard_child("sharded", spec, seed=0, workers=4)
    floor = dense_footprint_mb(
        spec["users"], spec["items"], result["num_edges"], 16
    )
    report(
        "shard_scale_1e6",
        "\n".join(
            f"{key:<20} {value}"
            for key, value in sorted(result.items())
            if key != "checksum"
        )
        + f"\ndense_footprint_mb   {floor:.1f}",
    )
    assert result["num_edges"] >= 10**6
    assert result["edges_shard_local"] >= 0.9
    assert result["peak_rss_mb"] < floor
