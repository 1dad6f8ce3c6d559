"""Bipartite GraphSAGE: shapes, modes, aggregators, gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.sage import BipartiteGraphSAGE, _chunk_kernel
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.nn.gradcheck import check_gradient
from repro.nn.layers import _ACTIVATIONS
from repro.streaming import StreamingEmbedder
from repro.utils.config import SageConfig


@pytest.fixture()
def graph():
    return random_bipartite(12, 10, 40, feature_dim=6, rng=0)


def _module(graph, **overrides):
    cfg = SageConfig(
        embedding_dim=8, neighbor_samples=(4, 3), **overrides
    )
    return BipartiteGraphSAGE(
        graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=0
    )


class TestShapes:
    def test_user_item_embeddings(self, graph):
        mod = _module(graph)
        zu = mod.embed_users(graph, np.arange(5))
        zi = mod.embed_items(graph, np.arange(7))
        assert zu.shape == (5, 8)
        assert zi.shape == (7, 8)

    def test_embed_all(self, graph):
        mod = _module(graph)
        zu, zi = mod.embed_all(graph, batch_size=5)
        assert zu.shape == (graph.num_users, 8)
        assert zi.shape == (graph.num_items, 8)

    def test_single_step(self, graph):
        mod = BipartiteGraphSAGE(
            6, 6, SageConfig(embedding_dim=8, num_steps=1, neighbor_samples=(3,)), rng=0
        )
        assert mod.embed_users(graph, np.arange(3)).shape == (3, 8)

    def test_embed_all_deterministic_eval(self, graph):
        # embed_all switches to eval mode; repeated calls may differ only
        # through neighbour sampling, which uses the internal RNG —
        # so rows are finite and shaped, not necessarily identical.
        mod = _module(graph)
        zu, _ = mod.embed_all(graph)
        assert np.all(np.isfinite(zu))


class TestValidation:
    def test_missing_features_raise(self):
        g = BipartiteGraph(3, 3, np.array([[0, 0]]))
        mod = BipartiteGraphSAGE(4, 4, SageConfig(embedding_dim=4), rng=0)
        with pytest.raises(ValueError):
            mod.embed_users(g, np.arange(2))

    def test_feature_dim_mismatch(self, graph):
        mod = BipartiteGraphSAGE(9, 9, SageConfig(embedding_dim=4), rng=0)
        with pytest.raises(ValueError):
            mod.embed_users(graph, np.arange(2))

    def test_shared_space_requires_equal_dims(self):
        with pytest.raises(ValueError):
            BipartiteGraphSAGE(4, 6, SageConfig(shared_space=True))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_nonpositive_batch_size_rejected(self, graph, batch_size):
        # 0 used to divide by zero and -1 to return an uninitialised matrix.
        mod = _module(graph)
        with pytest.raises(ValueError, match="batch_size"):
            mod.embed_all(graph, batch_size=batch_size)
        embedder = StreamingEmbedder(mod, batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            embedder.full_embed(graph)

    def test_parallel_embedding_of_a_graph_rejected(self, graph):
        # Only a ShardedCSR store fans out; a graph embeds in process.
        with pytest.raises(ValueError, match="ShardedCSR"):
            _module(graph).embed_all(graph, workers=2)


class TestSharedSpace:
    def test_matrices_are_shared(self, graph):
        mod = _module(graph, shared_space=True)
        assert mod.user_transform[0] is mod.item_transform[0]
        assert mod.user_weight[0] is mod.item_weight[0]
        # Parameter list contains no duplicates.
        ids = [id(p) for p in mod.parameters()]
        assert len(ids) == len(set(ids))

    def test_split_space_matrices_differ(self, graph):
        mod = _module(graph)
        assert mod.user_transform[0] is not mod.item_transform[0]


class TestIsolatedVertices:
    def test_isolated_vertex_gets_finite_embedding(self):
        g = BipartiteGraph(
            3,
            3,
            np.array([[0, 0]]),
            user_features=np.ones((3, 4)),
            item_features=np.ones((3, 4)),
        )
        mod = BipartiteGraphSAGE(4, 4, SageConfig(embedding_dim=4, neighbor_samples=(2, 2)), rng=0)
        z = mod.embed_users(g, np.array([1, 2]))
        assert np.all(np.isfinite(z.data))


class TestAggregators:
    @pytest.mark.parametrize("agg", ["mean", "sum", "max"])
    def test_all_aggregators_run(self, graph, agg):
        mod = _module(graph, aggregator=agg)
        z = mod.embed_users(graph, np.arange(4))
        assert np.all(np.isfinite(z.data))

    def test_unknown_aggregator_rejected_by_config(self):
        with pytest.raises(ValueError):
            SageConfig(aggregator="median")

    def test_weighted_mean_rejected_naming_mean(self):
        # It sampled neighbours uniformly, so it was "mean" under a second name.
        with pytest.raises(ValueError, match="use 'mean'"):
            SageConfig(aggregator="weighted_mean")


class TestGradients:
    def test_gradcheck_through_module(self):
        # Neighbour draws are a pure function of (seed, key, side, step,
        # vertex, slot), so every call of the forward draws the same.
        g = random_bipartite(4, 4, 12, feature_dim=3, rng=0)
        cfg = SageConfig(embedding_dim=4, num_steps=1, neighbor_samples=(4,))
        mod = BipartiteGraphSAGE(3, 3, cfg, rng=0)

        def loss():
            z = mod.embed_users(g, np.arange(4))
            return (z * z).sum()

        check_gradient(loss, mod.parameters(), atol=1e-3, rtol=1e-2)

    def test_gradients_reach_all_parameters(self, graph):
        mod = _module(graph)
        z = mod.embed_users(graph, np.arange(6))
        (z * z).sum().backward()
        touched = sum(1 for p in mod.parameters() if p.grad is not None)
        # At least the user-side parameters of both steps receive grads.
        assert touched >= 4


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300),
    fanout=st.integers(1, 12),
    own_dim=st.integers(1, 24),
    other_dim=st.integers(1, 24),
    out_dim=st.integers(1, 20),
    aggregator=st.sampled_from(["mean", "sum", "max"]),
    activation=st.sampled_from(sorted(_ACTIVATIONS)),
    isolated=st.floats(0.0, 1.0),
    bias=st.booleans(),
    seed=st.integers(0, 10_000),
)
# BLAS tail widths (d % 8 in 1..4) round a row differently with the
# number of rows in its call once K >= 16; these always run.
@example(200, 5, 20, 20, 3, "mean", "relu", 0.1, True, 0)
@example(200, 5, 20, 20, 9, "sum", "tanh", 0.0, False, 1)
@example(140, 3, 16, 24, 12, "max", "identity", 0.3, True, 2)
def test_property_row_selected_chunk_equals_full_chunk_rows(
    n, fanout, own_dim, other_dim, out_dim, aggregator, activation, isolated, bias, seed,
):
    # A row's kernel bytes must not depend on which other rows share its
    # call, how many there are, or in what order: the same row comes out
    # of the full call and of any subset, permuted.
    rng = np.random.default_rng(seed)
    own = rng.normal(size=(n, own_dim))
    other_prev = rng.normal(size=(int(rng.integers(1, 40)), other_dim))
    neigh = rng.integers(0, len(other_prev), size=(n, fanout))
    neigh[rng.random(n) < isolated] = -1
    params = {
        "m_w": rng.normal(size=(other_dim, out_dim)),
        "w_w": rng.normal(size=(own_dim + out_dim, out_dim)),
        "w_b": rng.normal(size=out_dim) * bias,
        "activation": activation,
        "aggregator": aggregator,
    }
    full = _chunk_kernel(own, other_prev, neigh, params)
    assert full.shape == (n, out_dim)
    rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    subset = _chunk_kernel(own[rows], other_prev, neigh[rows], params)
    assert subset.tobytes() == full[rows].tobytes()
