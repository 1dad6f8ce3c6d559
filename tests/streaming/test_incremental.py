"""Incremental graph overlay: O(delta) appends, dirty frontier, compaction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.streaming import IncrementalBipartiteGraph


def _base(num_users=30, num_items=20, num_edges=90, feature_dim=4, rng=0):
    return random_bipartite(
        num_users, num_items, num_edges, feature_dim=feature_dim, rng=rng
    )


def _edge_weight_map(graph: BipartiteGraph) -> dict[tuple[int, int], float]:
    return {
        (int(u), int(i)): float(w)
        for (u, i), w in zip(graph.edges, graph.edge_weights)
    }


class TestAppendSemantics:
    def test_appends_stay_in_overlay(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        before = inc._base.num_edges
        inc.add_edges(np.array([[0, 0], [1, 5]]))
        assert inc.pending_edges == 2
        assert inc._base.num_edges == before  # base CSR untouched

    def test_overlay_neighbor_queries(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base, compact_threshold=None)
        user, item = 3, 7
        inc.add_edges(np.array([[user, item]]))
        assert item in inc.item_neighbors(user)
        assert user in inc.user_neighbors(item)
        assert inc.user_degree(user) == base.user_degree(user) + 1
        assert inc.item_degree(item) == base.item_degree(item) + 1

    def test_materialised_graph_merges_duplicates_by_weight_sum(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base, compact_threshold=None)
        user, item = int(base.edges[0, 0]), int(base.edges[0, 1])
        existing = _edge_weight_map(base)[(user, item)]
        inc.add_edges(np.array([[user, item]]), np.array([2.5]))
        merged = _edge_weight_map(inc.graph)
        assert merged[(user, item)] == pytest.approx(existing + 2.5)

    def test_materialised_graph_equals_from_scratch_build(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base, compact_threshold=None)
        new_edges = np.array([[2, 4], [9, 11], [2, 4]])
        inc.add_edges(new_edges)
        expected = BipartiteGraph(
            base.num_users,
            base.num_items,
            np.concatenate([base.edges, new_edges]),
            np.concatenate([base.edge_weights, np.ones(3)]),
            base.user_features,
            base.item_features,
        )
        got = inc.graph
        # Same edge -> weight map as the from-scratch build ...
        assert _edge_weight_map(got) == pytest.approx(_edge_weight_map(expected))
        # ... but laid out as base edges in base order, then new edges
        # in arrival order (re-adds summed in place, not re-sorted).
        assert np.array_equal(got.edges[: base.num_edges], base.edges)
        known = base.edge_set()
        arrivals = []
        for u, i in new_edges.tolist():
            if (u, i) not in known:
                known.add((u, i))
                arrivals.append([u, i])
        assert np.array_equal(
            got.edges[base.num_edges :], np.array(arrivals).reshape(-1, 2)
        )

    def test_empty_append_is_a_noop(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        inc.add_edges(np.empty((0, 2), dtype=np.int64))
        assert inc.pending_edges == 0
        assert len(inc.dirty_users) == 0

    def test_rejects_out_of_range_and_bad_weights(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        with pytest.raises(ValueError, match="user index"):
            inc.add_edges(np.array([[999, 0]]))
        with pytest.raises(ValueError, match="item index"):
            inc.add_edges(np.array([[0, 999]]))
        with pytest.raises(ValueError, match="positive"):
            inc.add_edges(np.array([[0, 0]]), np.array([0.0]))
        with pytest.raises(ValueError, match="align"):
            inc.add_edges(np.array([[0, 0]]), np.array([1.0, 2.0]))


class TestVertexAppends:
    def test_add_users_returns_fresh_contiguous_ids(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base, compact_threshold=None)
        rng = np.random.default_rng(0)
        ids = inc.add_users(2, features=rng.normal(size=(2, 4)))
        assert list(ids) == [base.num_users, base.num_users + 1]
        assert inc.num_users == base.num_users + 2
        more = inc.add_users(1, features=rng.normal(size=(1, 4)))
        assert list(more) == [base.num_users + 2]

    def test_new_vertex_can_receive_edges(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        rng = np.random.default_rng(0)
        (user,) = inc.add_users(1, features=rng.normal(size=(1, 4)))
        (item,) = inc.add_items(1, features=rng.normal(size=(1, 4)))
        inc.add_edges(np.array([[user, item]]))
        assert item in inc.item_neighbors(user)
        graph = inc.graph
        assert graph.num_users == inc.num_users
        assert graph.user_features.shape == (inc.num_users, 4)

    def test_features_required_iff_base_has_them(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        with pytest.raises(ValueError, match="feature"):
            inc.add_users(1)
        with pytest.raises(ValueError, match="dim"):
            inc.add_users(1, features=np.zeros((1, 99)))
        featureless = BipartiteGraph(10, 8, np.array([[0, 0], [1, 2]]))
        bare = IncrementalBipartiteGraph(featureless, compact_threshold=None)
        bare.add_users(1)  # no features needed
        with pytest.raises(ValueError, match="no user features"):
            bare.add_users(1, features=np.zeros((1, 4)))


class TestDirtyFrontier:
    def test_edge_endpoints_marked_dirty(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        inc.add_edges(np.array([[5, 3], [7, 3]]))
        assert list(inc.dirty_users) == [5, 7]
        assert list(inc.dirty_items) == [3]
        assert inc.dirty_fraction == pytest.approx(3 / 50)

    def test_new_vertices_marked_dirty(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        rng = np.random.default_rng(0)
        ids = inc.add_users(2, features=rng.normal(size=(2, 4)))
        assert set(ids) <= set(int(u) for u in inc.dirty_users)

    def test_clear_dirty(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        inc.add_edges(np.array([[0, 0]]))
        inc.clear_dirty()
        assert len(inc.dirty_users) == 0
        assert len(inc.dirty_items) == 0

    def test_dirty_survives_compaction(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        inc.add_edges(np.array([[5, 3]]))
        inc.compact()
        assert list(inc.dirty_users) == [5]
        assert list(inc.dirty_items) == [3]


class TestCompaction:
    def test_round_trip_preserves_graph(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        rng = np.random.default_rng(1)
        inc.add_edges(np.array([[2, 4], [9, 11]]), np.array([1.5, 2.0]))
        (user,) = inc.add_users(1, features=rng.normal(size=(1, 4)))
        inc.add_edges(np.array([[user, 0]]))
        before = inc.graph
        inc.compact()
        after = inc.graph
        assert inc.pending_edges == 0
        assert after is inc._base  # overlay folded in
        assert np.array_equal(before.edges, after.edges)
        assert np.array_equal(before.edge_weights, after.edge_weights)
        assert np.array_equal(before.user_features, after.user_features)
        assert np.array_equal(before.item_features, after.item_features)

    def test_compact_on_clean_graph_is_a_noop(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base, compact_threshold=None)
        assert inc.compact() is base
        assert inc.compactions == 0

    def test_auto_compaction_at_threshold(self):
        base = _base(num_edges=90)
        inc = IncrementalBipartiteGraph(base, compact_threshold=0.05)
        # 0.05 * 90 = 4.5 -> fifth pending edge trips the compactor.
        for step in range(5):
            inc.add_edges(np.array([[step, step]]))
        assert inc.compactions == 1
        assert inc.pending_edges == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="compact_threshold"):
            IncrementalBipartiteGraph(_base(), compact_threshold=0.0)

    def test_queries_identical_before_and_after_compaction(self):
        inc = IncrementalBipartiteGraph(_base(), compact_threshold=None)
        inc.add_edges(np.array([[3, 7], [3, 9]]))
        before = {u: sorted(inc.item_neighbors(u)) for u in range(inc.num_users)}
        inc.compact()
        after = {u: sorted(inc.item_neighbors(u)) for u in range(inc.num_users)}
        assert before == after
