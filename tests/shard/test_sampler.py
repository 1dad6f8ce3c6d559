"""NeighborSampler over a shard store: the draws of the graph it holds.

The tests run the one ``NeighborSampler`` over a graph and over that
graph's ``ShardedCSR`` store; the store keeps global degrees and
per-row neighbour order, so one RNG seed gives one draw stream.
Weighted draws stay graph-only.
"""

import numpy as np
import pytest

from repro.graph import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.graph.sampling import NeighborSampler


@pytest.mark.parametrize("num_shards", [1, 4, 17])
def test_interleaved_streams_match_dense(tmp_path, num_shards):
    graph = random_bipartite(60, 45, 300, feature_dim=4, rng=2)
    with graph.to_sharded(tmp_path / "s", num_shards=num_shards) as store:
        dense = NeighborSampler(graph, rng=9)
        sharded = NeighborSampler(store, rng=9)
        users = np.arange(graph.num_users)
        items = np.arange(graph.num_items)
        # Alternate sides and fan-outs: one shared RNG per sampler must
        # stay aligned across the whole call sequence, not per call.
        for fanout in (1, 3, 7):
            assert np.array_equal(
                dense.sample_items_for_users(users, fanout),
                sharded.sample_items_for_users(users, fanout),
            )
            assert np.array_equal(
                dense.sample_users_for_items(items, fanout),
                sharded.sample_users_for_items(items, fanout),
            )


def test_isolated_vertices_marked(tmp_path):
    graph = BipartiteGraph(5, 4, np.array([[0, 0], [2, 3]]))
    with graph.to_sharded(tmp_path / "s", num_shards=2) as store:
        for source in (graph, store):
            picked = NeighborSampler(source, rng=0).sample_items_for_users(
                np.arange(5), 3
            )
            assert np.array_equal(picked[1], [-1, -1, -1])
            assert (picked[0] == 0).all()


def test_edgeless_graph_matches_dense(tmp_path):
    graph = BipartiteGraph(4, 3, np.zeros((0, 2), dtype=np.int64))
    with graph.to_sharded(tmp_path / "s", num_shards=2) as store:
        picked = [
            NeighborSampler(source, rng=1).sample_items_for_users(np.arange(4), 2)
            for source in (graph, store)
        ]
        assert np.array_equal(picked[0], picked[1])
        assert (picked[0] == -1).all()


def test_fanout_validated(tmp_path):
    graph = random_bipartite(6, 5, 12, rng=0)
    with graph.to_sharded(tmp_path / "s", num_shards=2) as store:
        for source in (graph, store):
            with pytest.raises(ValueError):
                NeighborSampler(source, rng=0).sample_items_for_users(np.arange(6), 0)


def test_weighted_draws_need_a_graph(tmp_path):
    graph = random_bipartite(6, 5, 12, rng=0)
    with graph.to_sharded(tmp_path / "s", num_shards=2) as store:
        with pytest.raises(ValueError, match="weighted"):
            NeighborSampler(store, rng=0, weighted=True)
