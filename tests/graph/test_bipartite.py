"""BipartiteGraph: construction, CSR queries, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.bipartite import BipartiteGraph


def _simple_graph():
    edges = np.array([[0, 0], [0, 1], [1, 1], [2, 0]])
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    return BipartiteGraph(3, 2, edges, weights)


class TestConstruction:
    def test_basic_counts(self):
        g = _simple_graph()
        assert g.num_users == 3
        assert g.num_items == 2
        assert g.num_edges == 4
        assert g.total_weight == pytest.approx(10.0)

    def test_default_weights_are_one(self):
        g = BipartiteGraph(2, 2, np.array([[0, 0], [1, 1]]))
        assert np.allclose(g.edge_weights, 1.0)

    def test_duplicate_edges_merge_weights(self):
        g = BipartiteGraph(
            2, 2, np.array([[0, 1], [0, 1], [1, 0]]), np.array([1.0, 2.5, 1.0])
        )
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == pytest.approx(3.5)

    def test_out_of_range_indices_raise(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, np.array([[2, 0]]))
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, np.array([[0, 2]]))

    def test_nonpositive_weight_raises(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, np.array([[0, 0]]), np.array([0.0]))
        for bad in (np.nan, np.inf):  # NaN slipped past ``min() <= 0``
            with pytest.raises(ValueError, match="finite"):
                BipartiteGraph(3, 3, np.array([[0, 0], [1, 1]]), np.array([bad, 1.0]))

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, np.array([[0, 0]]), np.array([1.0, 2.0]))

    def test_empty_sides_raise(self):
        with pytest.raises(ValueError):
            BipartiteGraph(0, 2, np.zeros((0, 2)))

    def test_feature_shape_checked(self):
        with pytest.raises(ValueError):
            BipartiteGraph(
                2, 2, np.array([[0, 0]]), user_features=np.zeros((3, 4))
            )

    @pytest.mark.parametrize(
        "bad",
        [
            [[0, 1, 2], [1, 0, 1]],  # (2, 3): was read as the pairs (0, 1), (2, 1), (0, 1)
            [[0.6, 1.9]],  # was truncated to the edge (0, 1)
            [1, 2, 3, 4],  # flat: was read as two pairs
            np.array([[0, 1]], dtype=bool),
        ],
    )
    def test_malformed_edges_raise(self, bad):
        with pytest.raises(ValueError, match=r"\(n, 2\) array of integer ids"):
            BipartiteGraph(5, 5, bad)

    @pytest.mark.parametrize(
        "empty", [[], np.zeros(0), np.zeros((0, 2)), np.empty((0, 2), dtype=np.int32)]
    )
    def test_empty_edges_mean_no_edges(self, empty):
        g = BipartiteGraph(2, 3, empty)
        assert g.num_edges == 0
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert g.user_degrees().tolist() == [0, 0]

    def test_other_integer_dtypes_are_taken_as_int64(self):
        g = BipartiteGraph(3, 2, np.array([[2, 1], [0, 0]], dtype=np.uint8))
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[2, 1], [0, 0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_features_raise(self, bad):
        # A NaN feature used to flow through GraphSAGE into K-means.
        features = np.ones((2, 3))
        features[1, 2] = bad
        for side in ("user_features", "item_features"):
            with pytest.raises(ValueError, match="finite"):
                BipartiteGraph(2, 2, np.array([[0, 0]]), **{side: features})


class TestQueries:
    def test_neighbors_both_directions(self):
        g = _simple_graph()
        assert set(g.item_neighbors(0)) == {0, 1}
        assert set(g.user_neighbors(1)) == {0, 1}
        assert set(g.user_neighbors(0)) == {0, 2}

    def test_neighbor_weights_align(self):
        g = _simple_graph()
        neigh = g.item_neighbors(0)
        weights = g.item_neighbor_weights(0)
        lookup = dict(zip(neigh.tolist(), weights.tolist()))
        assert lookup == {0: 1.0, 1: 2.0}

    def test_degrees(self):
        g = _simple_graph()
        assert g.user_degree(0) == 2
        assert g.item_degree(0) == 2
        assert np.array_equal(g.user_degrees(), [2, 1, 1])
        assert np.array_equal(g.item_degrees(), [2, 2])
        assert g.degrees("user") is g.user_degrees()  # computed once
        assert np.array_equal(g.degrees("item"), [2, 2])
        with pytest.raises(ValueError, match="side"):
            g.degrees("query")

    def test_has_edge_and_weight(self):
        g = _simple_graph()
        assert g.has_edge(2, 0)
        assert not g.has_edge(2, 1)
        assert g.edge_weight(2, 1) == 0.0

    def test_density(self):
        g = _simple_graph()
        assert g.density == pytest.approx(4 / 6)

    def test_adjacency_matrix(self):
        g = _simple_graph()
        mat = g.adjacency_matrix()
        assert mat.shape == (3, 2)
        assert mat[0, 1] == 2.0
        assert mat[1, 0] == 0.0

    def test_isolated_vertex_has_no_neighbors(self):
        g = BipartiteGraph(3, 3, np.array([[0, 0]]))
        assert len(g.item_neighbors(2)) == 0
        assert len(g.user_neighbors(1)) == 0


class TestDerivedViews:
    def test_with_features_attaches(self):
        g = _simple_graph()
        uf = np.ones((3, 4))
        itf = np.zeros((2, 5))
        g2 = g.with_features(uf, itf)
        assert g2.user_features.shape == (3, 4)
        assert g2.item_features.shape == (2, 5)
        assert g2.num_edges == g.num_edges

    def test_subgraph_by_edges(self):
        g = _simple_graph()
        mask = np.array([True, False, True, False])
        sub = g.subgraph_by_edges(mask)
        assert sub.num_edges == 2
        assert sub.num_users == g.num_users  # vertex sets preserved
        assert sub.has_edge(0, 0)
        assert not sub.has_edge(0, 1)

    def test_subgraph_bad_mask(self):
        with pytest.raises(ValueError):
            _simple_graph().subgraph_by_edges(np.array([True]))

    def test_edge_set(self):
        assert _simple_graph().edge_set() == {(0, 0), (0, 1), (1, 1), (2, 0)}


@settings(max_examples=30, deadline=None)
@given(
    n_users=st.integers(1, 8),
    n_items=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_property_degree_sums_match_edges(n_users, n_items, seed):
    rng = np.random.default_rng(seed)
    n_edges = int(rng.integers(1, n_users * n_items + 1))
    flat = rng.choice(n_users * n_items, size=n_edges, replace=False)
    edges = np.column_stack([flat // n_items, flat % n_items])
    g = BipartiteGraph(n_users, n_items, edges)
    assert g.user_degrees().sum() == g.num_edges
    assert g.item_degrees().sum() == g.num_edges
    # Both CSR directions describe the same edge set.
    from_users = {(u, int(i)) for u in range(n_users) for i in g.item_neighbors(u)}
    from_items = {(int(u), i) for i in range(n_items) for u in g.user_neighbors(i)}
    assert from_users == from_items == g.edge_set()
    # The multi-row query concatenates the rows it is asked for, in order.
    rows = rng.integers(0, n_users, 5)
    assert g.adjacent("user", rows).tolist() == [
        int(i) for u in rows for i in g.item_neighbors(u)
    ]


def _merge_reference(edges, weights):
    """The former ``np.unique(axis=0)`` merge, kept as the oracle."""
    if not len(edges):
        return edges, weights
    unique, inverse = np.unique(edges, axis=0, return_inverse=True)
    if len(unique) == len(edges):
        return edges, weights
    merged = np.zeros(len(unique), dtype=np.float64)
    np.add.at(merged, inverse.reshape(-1), weights)
    return unique, merged


@settings(max_examples=60, deadline=None)
@given(
    n_users=st.integers(1, 40),
    n_items=st.integers(1, 40),
    n_edges=st.integers(0, 120),
    duplicates=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_property_merge_duplicates_matches_unique_rows(
    n_users, n_items, n_edges, duplicates, seed
):
    # Covers empty input, a single edge, and inputs with and without
    # repeated pairs; weights are non-integral so summation order shows.
    rng = np.random.default_rng(seed)
    if duplicates:
        flat = rng.integers(0, n_users * n_items, size=n_edges)
    else:
        flat = rng.choice(n_users * n_items, size=min(n_edges, n_users * n_items), replace=False)
    edges = np.column_stack([flat // n_items, flat % n_items]).astype(np.int64).reshape(-1, 2)
    weights = rng.random(len(edges)) + 0.1
    got_edges, got_weights = BipartiteGraph._merge_duplicates(edges, weights, n_users, n_items)
    want_edges, want_weights = _merge_reference(edges, weights)
    assert got_edges.dtype == want_edges.dtype and got_edges.shape == want_edges.shape
    assert got_edges.tobytes() == want_edges.tobytes()
    assert got_weights.dtype == want_weights.dtype
    assert got_weights.tobytes() == want_weights.tobytes()


def test_edge_keys_refuse_int64_overflow():
    with pytest.raises(OverflowError):
        BipartiteGraph(2**32, 2**32, np.array([[0, 0], [0, 0]]))
