"""Neighbour/negative samplers and edge batching."""

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite, star_bipartite
from repro.graph.sampling import (
    NegativeSampler,
    NeighborSampler,
    sample_edge_batches,
    sample_neighbors,
)


def _uniforms(n, fanout, seed=0):
    return np.random.default_rng(seed).random((n, fanout))


class TestNeighborSampler:
    """The uniform draw ``sample_neighbors`` (given uniforms), then the
    weighted ``NeighborSampler``."""

    def test_shapes(self, small_random_graph):
        users = np.arange(10)
        out = sample_neighbors(small_random_graph, "user", users, _uniforms(10, 4))
        assert out.shape == (10, 4)
        items = np.arange(8)
        out_i = sample_neighbors(small_random_graph, "item", items, _uniforms(8, 3))
        assert out_i.shape == (8, 3)

    def test_samples_are_true_neighbors(self, small_random_graph):
        g = small_random_graph
        users = np.arange(g.num_users)
        out = sample_neighbors(g, "user", users, _uniforms(g.num_users, 5))
        for u in range(g.num_users):
            neigh = set(g.item_neighbors(u).tolist())
            sampled = set(out[u].tolist()) - {-1}
            assert sampled <= neigh

    def test_isolated_vertex_padded(self):
        g = BipartiteGraph(3, 3, np.array([[0, 0]]))
        out = sample_neighbors(g, "user", np.array([1, 2]), _uniforms(2, 3))
        assert np.all(out == -1)

    def test_empty_graph_handles(self):
        g = BipartiteGraph(2, 2, np.zeros((0, 2), dtype=int))
        out = sample_neighbors(g, "user", np.array([0, 1]), _uniforms(2, 2))
        assert np.all(out == -1)

    def test_star_graph(self):
        g = star_bipartite(5)
        out = sample_neighbors(g, "user", np.array([0]), _uniforms(1, 10))
        assert set(out[0].tolist()) <= set(range(5))

    def test_invalid_fanout(self, small_random_graph):
        with pytest.raises(ValueError):
            sample_neighbors(small_random_graph, "user", np.arange(2), np.empty((2, 0)))
        with pytest.raises(ValueError):
            NeighborSampler(small_random_graph).sample_items_for_users(np.arange(2), 0)

    def test_deterministic_with_seed(self, small_random_graph):
        # A row reads only its own uniforms: the same uniforms give the
        # same draws, whichever other rows share the call.
        vertices = np.arange(5)
        uniforms = _uniforms(5, 3, seed=5)
        a = sample_neighbors(small_random_graph, "user", vertices, uniforms)
        b = sample_neighbors(small_random_graph, "user", vertices[::-1], uniforms[::-1])
        assert np.array_equal(a, b[::-1])

    def test_weighted_sampling_prefers_heavy_edges(self):
        # user 0: item 0 weight 99, item 1 weight 1.
        g = BipartiteGraph(1, 2, np.array([[0, 0], [0, 1]]), np.array([99.0, 1.0]))
        sampler = NeighborSampler(g, rng=0)
        out = sampler.sample_items_for_users(np.zeros(200, dtype=int), fanout=1)
        share_heavy = float(np.mean(out == 0))
        assert share_heavy > 0.9

    def test_weighted_isolated_padded(self):
        g = BipartiteGraph(2, 2, np.array([[0, 0]]))
        sampler = NeighborSampler(g, rng=0)
        out = sampler.sample_items_for_users(np.array([1]), fanout=2)
        assert np.all(out == -1)


class TestNegativeSampler:
    def test_uniform_covers_range(self, small_random_graph):
        sampler = NegativeSampler(small_random_graph, distribution="uniform", rng=0)
        users = sampler.sample_users(500)
        items = sampler.sample_items(500)
        assert users.min() >= 0 and users.max() < small_random_graph.num_users
        assert items.min() >= 0 and items.max() < small_random_graph.num_items

    def test_degree_distribution_prefers_popular(self):
        # item 0 has degree 5, item 4 degree 0.
        edges = np.array([[u, 0] for u in range(5)])
        g = BipartiteGraph(5, 5, edges)
        sampler = NegativeSampler(g, distribution="degree", rng=0)
        items = sampler.sample_items(3000)
        counts = np.bincount(items, minlength=5)
        assert counts[0] > counts[4] > 0  # smoothing keeps isolated reachable

    def test_unknown_distribution(self, small_random_graph):
        with pytest.raises(ValueError):
            NegativeSampler(small_random_graph, distribution="zipf")


class TestEdgeBatches:
    def test_covers_every_edge_once(self, small_random_graph):
        g = small_random_graph
        seen = []
        for users, items, weights in sample_edge_batches(g, batch_size=7, rng=0):
            assert len(users) == len(items) == len(weights)
            seen.extend(zip(users.tolist(), items.tolist()))
        assert sorted(seen) == sorted((int(u), int(i)) for u, i in g.edges)

    def test_batch_size_respected(self, small_random_graph):
        sizes = [
            len(u) for u, _, _ in sample_edge_batches(small_random_graph, 8, rng=0)
        ]
        assert all(s <= 8 for s in sizes)
        assert sum(sizes) == small_random_graph.num_edges

    def test_invalid_batch_size(self, small_random_graph):
        with pytest.raises(ValueError):
            list(sample_edge_batches(small_random_graph, 0))

    def test_no_shuffle_is_stable(self, small_random_graph):
        a = [
            u.tolist()
            for u, _, _ in sample_edge_batches(small_random_graph, 5, shuffle=False)
        ]
        b = [
            u.tolist()
            for u, _, _ in sample_edge_batches(small_random_graph, 5, shuffle=False)
        ]
        assert a == b


class TestWeightedSamplerEquivalence:
    """The batched searchsorted sampler must reproduce the per-row loop
    bit-for-bit: both consume the same rng draw stream, so picks match."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_bitwise(self, seed):
        g = random_bipartite(40, 30, 200, rng=seed)
        vertices = np.arange(g.num_users)
        fast = NeighborSampler(g, rng=seed)
        slow = NeighborSampler(g, rng=seed)
        got = fast.sample_items_for_users(vertices, fanout=6)
        want = slow._sample_reference(vertices, fanout=6, side="user")
        np.testing.assert_array_equal(got, want)

    def test_matches_reference_item_side(self):
        g = random_bipartite(25, 35, 150, rng=3)
        vertices = np.arange(g.num_items)
        fast = NeighborSampler(g, rng=7)
        slow = NeighborSampler(g, rng=7)
        got = fast.sample_users_for_items(vertices, fanout=4)
        want = slow._sample_reference(vertices, fanout=4, side="item")
        np.testing.assert_array_equal(got, want)

    def test_matches_reference_with_isolated_and_duplicate_vertices(self):
        g = BipartiteGraph(
            5, 4, np.array([[0, 0], [0, 1], [2, 3]]), np.array([1.0, 3.0, 2.0])
        )
        vertices = np.array([0, 1, 0, 4, 2, 2])  # 1 and 4 are isolated
        fast = NeighborSampler(g, rng=11)
        slow = NeighborSampler(g, rng=11)
        got = fast.sample_items_for_users(vertices, fanout=5)
        want = slow._sample_reference(vertices, fanout=5, side="user")
        np.testing.assert_array_equal(got, want)
        assert np.all(got[[1, 3]] == -1)
