"""``sample_neighbors`` over a store: the draws of the graph it holds.

The tests run the one uniform draw, ``sample_neighbors``, over a graph
and over a ``ShardedCSR`` store of it with the same uniforms; the store
keeps degrees and per-row neighbour order, so the same uniforms give
the same neighbours.
"""

import numpy as np
import pytest

from repro.data import StreamedWorldConfig, stream_world_to_shards
from repro.graph import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_neighbors


@pytest.mark.parametrize("num_shards", [1, 4, 17])
def test_interleaved_streams_match_dense(tmp_path, num_shards):
    # A streamed store (num_shards item ranges at build) against its graph.
    cfg = StreamedWorldConfig(
        num_users=60, num_items=45, num_clusters=3, feature_dim=4, chunk_users=16
    )
    rng = np.random.default_rng(9)
    with stream_world_to_shards(tmp_path / "s", cfg, num_shards=num_shards, seed=2) as store:
        graph = store.to_graph()
        # Alternate sides and fan-outs, over all vertices and a shuffled
        # subset with repeats.
        for fanout in (1, 3, 7):
            for side, n in (("user", graph.num_users), ("item", graph.num_items)):
                for vertices in (np.arange(n), rng.integers(0, n, 2 * n)):
                    uniforms = rng.random((len(vertices), fanout))
                    assert np.array_equal(
                        sample_neighbors(graph, side, vertices, uniforms),
                        sample_neighbors(store, side, vertices, uniforms),
                    )


def test_isolated_vertices_marked(tmp_path):
    graph = BipartiteGraph(5, 4, np.array([[0, 0], [2, 3]]))
    uniforms = np.random.default_rng(0).random((5, 3))
    with graph.to_sharded(tmp_path / "s") as store:
        for source in (graph, store):
            picked = sample_neighbors(source, "user", np.arange(5), uniforms)
            assert np.array_equal(picked[1], [-1, -1, -1])
            assert (picked[0] == 0).all()


def test_edgeless_graph_matches_dense(tmp_path):
    graph = BipartiteGraph(4, 3, np.zeros((0, 2), dtype=np.int64))
    uniforms = np.random.default_rng(1).random((4, 2))
    with graph.to_sharded(tmp_path / "s") as store:
        picked = [
            sample_neighbors(source, "user", np.arange(4), uniforms)
            for source in (graph, store)
        ]
        assert np.array_equal(picked[0], picked[1])
        assert (picked[0] == -1).all()


def test_fanout_validated(tmp_path):
    graph = random_bipartite(6, 5, 12, rng=0)
    with graph.to_sharded(tmp_path / "s") as store:
        for source in (graph, store):
            with pytest.raises(ValueError):
                sample_neighbors(source, "user", np.arange(6), np.empty((6, 0)))
