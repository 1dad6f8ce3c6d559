"""Streamed cluster-structured worlds written straight to a store."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import StreamedWorldConfig, stream_world_to_shards
from repro.graph import BipartiteGraph

_CFG = StreamedWorldConfig(
    num_users=1500,
    num_items=1000,
    num_clusters=12,
    mean_degree=5.0,
    feature_dim=6,
    chunk_users=400,
)


def test_deterministic_per_seed(tmp_path):
    with stream_world_to_shards(tmp_path / "a", _CFG, num_shards=4, seed=3) as a:
        with stream_world_to_shards(tmp_path / "b", _CFG, num_shards=4, seed=3) as b:
            ga, gb = a.to_graph(), b.to_graph()
            assert np.array_equal(ga.edges, gb.edges)
            assert np.array_equal(ga.edge_weights, gb.edge_weights)
            assert np.array_equal(ga.user_features, gb.user_features)
            assert np.array_equal(ga.item_features, gb.item_features)
        with stream_world_to_shards(tmp_path / "c", _CFG, num_shards=4, seed=4) as c:
            assert c.num_edges != a.num_edges or not np.array_equal(
                c.to_graph().edges, ga.edges
            )


def test_world_bytes_pinned(tmp_path):
    # sha256 of edges, weights, both feature matrices and the item CSR's
    # indices, recorded before the store became one CSR per side.
    cfg = StreamedWorldConfig(
        num_users=300, num_items=200, num_clusters=5, mean_degree=4.0,
        feature_dim=3, chunk_users=64,
    )
    with stream_world_to_shards(tmp_path / "w", cfg, num_shards=4, seed=7) as store:
        graph = store.to_graph()
    digest = hashlib.sha256()
    for array in (
        graph.edges,
        graph.edge_weights,
        graph.user_features,
        graph.item_features,
        graph._item_csr.indices,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert graph.num_edges == 1147
    assert digest.hexdigest() == (
        "1246df1f996cc213ac81f504a9e5f8788036e014b76d01a3f61c39724ec77fb3"
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    num_shards=st.sampled_from([3, 4]),
    chunk_users=st.integers(1, 50),
)
def test_shard_count_leaves_store_bytes_unchanged(seed, num_shards, chunk_users):
    # num_shards only splits the builder's finalize sort into item ranges.
    cfg = StreamedWorldConfig(
        num_users=80, num_items=30, num_clusters=4, feature_dim=2,
        chunk_users=chunk_users,
    )
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for count in (1, num_shards):
            path = Path(tmp) / f"w{count}"
            with stream_world_to_shards(path, cfg, num_shards=count, seed=seed):
                files.append({f.name: f.read_bytes() for f in sorted(path.iterdir())})
        assert files[0] == files[1]


def test_world_is_a_valid_graph(tmp_path):
    with stream_world_to_shards(tmp_path / "w", _CFG, num_shards=3, seed=1) as store:
        graph = store.to_graph()
        # Revalidates ids, weight positivity, and dedup via the ctor.
        rebuilt = BipartiteGraph(
            graph.num_users, graph.num_items, graph.edges, graph.edge_weights
        )
        assert rebuilt.num_edges == store.num_edges
        assert graph.user_degrees().min() >= 1  # every user clicked
        assert graph.edge_weights.min() >= 1.0  # weights count clicks
        assert store.feature_dim("user") == _CFG.feature_dim
        assert store.features("item").shape == (_CFG.num_items, _CFG.feature_dim)


def test_config_validation():
    with pytest.raises(ValueError):
        StreamedWorldConfig(num_users=0)
    with pytest.raises(ValueError):
        StreamedWorldConfig(within_cluster=1.5)
    with pytest.raises(ValueError):
        StreamedWorldConfig(mean_degree=0.0)
    with pytest.raises(ValueError):
        StreamedWorldConfig(chunk_users=0)
