"""Tier-1 smoke of the bench harness's shard section (quick grid only)."""

from repro.shard import active_shard_dirs
from benchmarks.hotpaths import SHARD_SIZES, _bench_shard, dense_footprint_mb


def test_quick_shard_rows():
    before = active_shard_dirs()
    rows = _bench_shard("quick", seed=0, repeats=1, workers=1)
    assert active_shard_dirs() == before  # no stray stores left behind
    assert len(rows) == len(SHARD_SIZES["quick"])
    row = rows[0]
    assert row["variant"] == "embed_sharded_smoke"
    assert row["bitwise_equal"] is True
    assert row["edges_shard_local"] >= 0.9
    assert row["build_s"] > 0 and row["after_s"] > 0
    # One count per vertex per propagation step (two steps configured).
    assert row["vertices_embedded"] == 2 * (
        row["graph"]["num_users"] + row["graph"]["num_items"]
    )
    assert set(row) >= {"num_shards", "workers", "before_s", "speedup"}


def test_dense_footprint_formula():
    # 1e6 vertices at the tracked full-mode spec: the floor the sharded
    # child's peak RSS is compared against must be nontrivially large.
    mb = dense_footprint_mb(600_000, 400_000, 4_800_000, 16)
    assert 250 < mb < 1000
    assert dense_footprint_mb(0, 0, 0, 16) < 0.001  # only empty indptrs
