"""Bench report schema: commit stamp, throughput columns, the loader."""

import json

import pytest

from benchmarks import hotpaths as bench
from benchmarks.hotpaths import (
    SCHEMA,
    bench_hotpaths,
    git_commit,
    load_report,
    render_report,
    write_report,
)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    """One tiny bench run shared by the schema tests (wiring, not perf)."""
    sizes = dict(bench.GRAPH_SIZES)
    ksizes = dict(bench.KMEANS_SIZES)
    ssizes = dict(bench.SHARD_SIZES)
    psizes = dict(bench.PARALLEL_STORE_SIZES)
    tiny_store = {"users": 120, "items": 90, "clusters": 6, "shards": 3, "degree": 4.0}
    bench.GRAPH_SIZES["quick"] = [(40, 30, 120)]
    bench.KMEANS_SIZES["quick"] = [(60, 4, 5)]
    bench.SHARD_SIZES["quick"] = [tiny_store]
    bench.PARALLEL_STORE_SIZES["quick"] = tiny_store
    try:
        report = bench_hotpaths("quick", seed=0, repeats=1)
    finally:
        bench.GRAPH_SIZES.update(sizes)
        bench.KMEANS_SIZES.update(ksizes)
        bench.SHARD_SIZES.update(ssizes)
        bench.PARALLEL_STORE_SIZES.update(psizes)
    return report


class TestSchemaV2:
    def test_schema_and_commit_stamp(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA
        commit = tiny_report["git_commit"]
        assert commit is None or (len(commit) == 40 and commit == git_commit())

    def test_throughput_columns(self, tiny_report):
        benches = tiny_report["benchmarks"]
        embed = benches["embed_all"][0]
        assert embed["vertices_embedded"] > 0
        assert embed["vertices_per_sec"] > 0
        sampling = benches["weighted_sampling"][0]
        assert sampling["samples_drawn"] == sampling["batch"] * sampling["fanout"]
        assert sampling["samples_per_sec"] > 0
        train = benches["train_epoch"][0]
        assert train["edges_seen"] > 0 and train["edges_per_sec"] > 0

    def test_v4_parallel_honesty_columns(self, tiny_report):
        import os

        usable = len(os.sched_getaffinity(0))
        for row in tiny_report["benchmarks"]["parallel"]:
            assert row["workers_effective"] == min(row["workers"], usable)
            # Oversubscribed rows time the scheduler, so they are flagged.
            assert row["degraded"] == (row["workers"] > usable)

    def test_v4_shard_section(self, tiny_report):
        rows = tiny_report["benchmarks"]["shard"]
        assert len(rows) == 1
        row = rows[0]
        assert row["bitwise_equal"] is True
        assert row["num_shards"] == 3 and row["build_s"] > 0

    def test_render_includes_throughput_and_commit(self, tiny_report):
        text = render_report(tiny_report)
        assert "vert/s" in text and "smp/s" in text and "edge/s" in text
        assert "commit" in text


class TestLoader:
    def test_round_trip_v2(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path / "r.json")
        assert load_report(path) == json.loads(path.read_text())

    def test_rejects_unknown_schema(self, tmp_path):
        # Older schemas are rejected too: the loader upgrades nothing.
        path = tmp_path / "bad.json"
        for schema in ("other/v9", "repro/hotpath-bench/v5"):
            path.write_text(json.dumps({"schema": schema}))
            with pytest.raises(ValueError):
                load_report(path)
