"""Incremental graph: a graph plus a pending delta, folded on read."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.streaming import IncrementalBipartiteGraph
from tests.oracles import assert_same_graph, reference_fold


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
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        inc.add_edges(np.array([[0, 0], [1, 5]]))
        assert inc.pending_edges == 2
        assert inc._graph is base  # nothing folds until the graph is read

    def test_materialised_graph_merges_duplicates_by_weight_sum(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        user, item = int(base.edges[0, 0]), int(base.edges[0, 1])
        existing = _edge_weight_map(base)[(user, item)]
        inc.add_edges(np.array([[user, item]]), np.array([2.5]))
        merged = _edge_weight_map(inc.graph)
        assert merged[(user, item)] == pytest.approx(existing + 2.5)

    def test_materialised_graph_equals_from_scratch_build(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
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
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.empty((0, 2), dtype=np.int64))
        assert inc.pending_edges == 0
        assert len(inc.dirty_users) == 0

    def test_rejects_out_of_range_and_bad_weights(self):
        inc = IncrementalBipartiteGraph(_base())
        with pytest.raises(ValueError, match="user index"):
            inc.add_edges(np.array([[999, 0]]))
        with pytest.raises(ValueError, match="item index"):
            inc.add_edges(np.array([[0, 999]]))
        with pytest.raises(ValueError, match="positive"):
            inc.add_edges(np.array([[0, 0]]), np.array([0.0]))
        with pytest.raises(ValueError, match="align"):
            inc.add_edges(np.array([[0, 0]]), np.array([1.0, 2.0]))
        for bad in (np.nan, np.inf):  # NaN slipped past ``min() <= 0``
            with pytest.raises(ValueError, match="finite"):
                inc.add_edges(np.array([[0, 1], [1, 1]]), np.array([bad, 1.0]))
        # Flat ids used to be read as pairs, and float ids truncated.
        for malformed in ([1, 2, 3, 4], [[0.6, 1.9]]):
            with pytest.raises(ValueError, match="integer ids"):
                inc.add_edges(malformed)
        assert inc.pending_edges == 0


class TestVertexAppends:
    def test_add_users_returns_fresh_contiguous_ids(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        rng = np.random.default_rng(0)
        ids = inc.add_users(2, features=rng.normal(size=(2, 4)))
        assert list(ids) == [base.num_users, base.num_users + 1]
        assert inc.num_users == base.num_users + 2
        more = inc.add_users(1, features=rng.normal(size=(1, 4)))
        assert list(more) == [base.num_users + 2]

    def test_new_vertex_can_receive_edges(self):
        inc = IncrementalBipartiteGraph(_base())
        rng = np.random.default_rng(0)
        (user,) = inc.add_users(1, features=rng.normal(size=(1, 4)))
        (item,) = inc.add_items(1, features=rng.normal(size=(1, 4)))
        inc.add_edges(np.array([[user, item]]))
        graph = inc.graph
        assert item in graph.item_neighbors(user)
        assert graph.num_users == inc.num_users
        assert graph.user_features.shape == (inc.num_users, 4)

    def test_features_required_iff_base_has_them(self):
        inc = IncrementalBipartiteGraph(_base())
        with pytest.raises(ValueError, match="feature"):
            inc.add_users(1)
        with pytest.raises(ValueError, match="dim"):
            inc.add_users(1, features=np.zeros((1, 99)))
        # Rows are taken as given, never repacked: eight values are two
        # 4-dim rows only when laid out as (2, 4).  They must be finite.
        for bad in (np.arange(8.0).reshape(4, 2), np.arange(8.0), np.full((2, 4), np.nan)):
            with pytest.raises(ValueError, match="dim|finite"):
                inc.add_users(2, features=bad)
        assert inc.num_users == 30
        featureless = BipartiteGraph(10, 8, np.array([[0, 0], [1, 2]]))
        bare = IncrementalBipartiteGraph(featureless)
        bare.add_users(1)  # no features needed
        with pytest.raises(ValueError, match="no user features"):
            bare.add_users(1, features=np.zeros((1, 4)))


class TestDirtyFrontier:
    def test_edge_endpoints_marked_dirty(self):
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.array([[5, 3], [7, 3]]))
        assert list(inc.dirty_users) == [5, 7]
        assert list(inc.dirty_items) == [3]
        assert inc.dirty_fraction == pytest.approx(3 / 50)

    def test_new_vertices_marked_dirty(self):
        inc = IncrementalBipartiteGraph(_base())
        rng = np.random.default_rng(0)
        ids = inc.add_users(2, features=rng.normal(size=(2, 4)))
        assert set(ids) <= set(int(u) for u in inc.dirty_users)

    def test_clear_dirty(self):
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.array([[0, 0]]))
        inc.clear_dirty()
        assert len(inc.dirty_users) == 0
        assert len(inc.dirty_items) == 0

    def test_dirty_survives_compaction(self):
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.array([[5, 3]]))
        inc.graph  # the fold
        assert inc.pending_edges == 0
        assert list(inc.dirty_users) == [5]
        assert list(inc.dirty_items) == [3]


class TestCompaction:
    """Reading ``.graph`` folds the pending delta: the only compaction."""

    def test_round_trip_preserves_graph(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        rng = np.random.default_rng(1)
        inc.add_edges(np.array([[2, 4], [9, 11]]), np.array([1.5, 2.0]))
        feats = rng.normal(size=(1, 4))
        (user,) = inc.add_users(1, features=feats)
        inc.add_edges(np.array([[user, 0]]))
        folded = inc.graph
        assert inc.pending_edges == 0
        assert inc.graph is folded  # a second read folds nothing
        assert (folded.num_users, folded.num_items) == (base.num_users + 1, base.num_items)
        assert np.array_equal(folded.edges[: base.num_edges], base.edges)
        expected = _edge_weight_map(base)
        for edge, weight in (((2, 4), 1.5), ((9, 11), 2.0), ((int(user), 0), 1.0)):
            expected[edge] = expected.get(edge, 0.0) + weight
        assert _edge_weight_map(folded) == expected
        assert np.array_equal(folded.user_features, np.vstack([base.user_features, feats]))
        assert folded.item_features is base.item_features

    def test_compact_on_clean_graph_is_a_noop(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        with obs.observe() as session:
            assert inc.graph is base
            inc.add_edges(np.array([[1, 1]]))
            inc.graph
            inc.graph
        assert session.counter("streaming.compactions") == 1

    def test_queries_identical_before_and_after_compaction(self):
        # The folded graph answers every neighbour query the base rows
        # plus the pending appends answer, in that order.
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        delta = np.array([[3, 7], [3, 9], [5, 7]])
        inc.add_edges(delta)
        graph = inc.graph
        for user in range(base.num_users):
            appended = [i for u, i in delta.tolist() if u == user and i not in base.item_neighbors(user)]
            assert graph.item_neighbors(user).tolist() == base.item_neighbors(user).tolist() + appended
        for item in range(base.num_items):
            appended = [u for u, i in delta.tolist() if i == item and u not in base.user_neighbors(item)]
            assert graph.user_neighbors(item).tolist() == base.user_neighbors(item).tolist() + appended


_WEIGHTS = st.floats(min_value=1e-3, max_value=10.0)
# (user, item, weight) triples; ids are taken modulo the sides' sizes.
_TRIPLES = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), _WEIGHTS), max_size=12)


def _edges(triples, num_users, num_items):
    pairs = np.array([t[:2] for t in triples], dtype=np.int64).reshape(-1, 2)
    weights = np.array([t[2] for t in triples], dtype=np.float64)
    return pairs % [num_users, num_items], weights


def _grow(inc: IncrementalBipartiteGraph, delta: tuple, dim: int, rng) -> None:
    """One delta: new users and items (with feature rows when ``dim``),
    then weighted edges, which may land on the new vertices or re-add
    existing pairs."""
    new_users, new_items, triples = delta
    if new_users:
        inc.add_users(new_users, features=rng.normal(size=(new_users, dim)) if dim else None)
    if new_items:
        inc.add_items(new_items, features=rng.normal(size=(new_items, dim)) if dim else None)
    inc.add_edges(*_edges(triples, inc.num_users, inc.num_items))


@settings(max_examples=60, deadline=None)
@given(
    base=st.tuples(st.integers(1, 8), st.integers(1, 8), _TRIPLES, st.sampled_from([0, 2])),
    deltas=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), _TRIPLES), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**16),
)
# Delta rows with only empty rows between them share one insert position
# (users 2-4 and items 2-3), arriving out of row order.
@example(
    base=(6, 4, [(0, 0, 1.0), (5, 1, 1.0)], 0),
    deltas=[(0, 0, [(4, 3, 1.0), (2, 2, 0.5), (3, 0, 2.0)])],
    seed=0,
)
# One pair re-added twice in one delta, then again: (0.1 + 0.7) + 0.3
# and 0.1 + (0.7 + 0.3) differ in the last bit.
@example(
    base=(3, 3, [(1, 1, 0.1), (0, 0, 1.0)], 0),
    deltas=[(0, 0, [(1, 1, 0.7), (0, 2, 0.2), (1, 1, 0.3)]), (0, 0, [(1, 1, 0.6), (0, 2, 0.9)])],
    seed=0,
)
# New vertices with and without features, with edges on them, then a
# vertex-only delta.
@example(
    base=(4, 3, [(0, 0, 1.0), (3, 2, 1.0)], 2),
    deltas=[(2, 1, [(4, 3, 1.0), (5, 0, 1.0), (1, 3, 2.0)]), (1, 1, [])],
    seed=1,
)
@example(
    base=(4, 3, [(0, 0, 1.0), (3, 2, 1.0)], 0),
    deltas=[(2, 1, [(4, 3, 1.0), (5, 0, 1.0), (1, 3, 2.0)]), (1, 1, [])],
    seed=1,
)
# An edgeless base graph.
@example(base=(3, 2, [], 0), deltas=[(0, 0, [(2, 1, 1.0), (0, 1, 0.5), (2, 1, 0.25)])], seed=0)
# A chain of k = 4 deltas mixing all of the above.
@example(
    base=(5, 4, [(0, 0, 1.0), (4, 3, 2.0), (2, 1, 0.5)], 2),
    deltas=[
        (0, 0, [(4, 3, 0.1), (1, 2, 0.7)]),
        (1, 0, [(5, 0, 1.0), (1, 2, 0.3), (4, 3, 0.2)]),
        (0, 2, []),
        (0, 0, [(5, 5, 1.5), (3, 4, 0.5), (1, 2, 0.1)]),
    ],
    seed=2,
)
def test_property_fold_equals_the_constructor_oracle(base, deltas, seed):
    # The merge fold gives the constructor's bytes (tests.oracles), every
    # array and flag of the graph, whether it folds after every delta of a
    # chain or once after the whole chain.
    num_users, num_items, triples, dim = base
    rng = np.random.default_rng(seed)
    graph = BipartiteGraph(
        num_users,
        num_items,
        *_edges(triples, num_users, num_items),
        rng.normal(size=(num_users, dim)) if dim else None,
        rng.normal(size=(num_items, dim)) if dim else None,
    )
    each, once = IncrementalBipartiteGraph(graph), IncrementalBipartiteGraph(graph)
    reference = graph
    for k, delta in enumerate(deltas):
        _grow(each, delta, dim, np.random.default_rng([seed, k]))
        _grow(once, delta, dim, np.random.default_rng([seed, k]))
        reference = reference_fold(reference, each)
        assert_same_graph(each.graph, reference)
    assert_same_graph(once.graph, reference)
    assert np.array_equal(each.dirty_users, once.dirty_users)
    assert np.array_equal(each.dirty_items, once.dirty_items)
