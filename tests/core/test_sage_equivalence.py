"""Numerical equivalence of the hot-path rewrites in BipartiteGraphSAGE.

The block mini-batch step (``embed_block``) and the layer-wise
``embed_all`` must compute exactly what the naive per-occurrence
recursion computes whenever neighbour sampling is a pure function of
the vertex.  These tests install such a deterministic sampler (first
neighbours, cycled to the fan-out) and assert the rewrites agree with
the retained reference paths, values and parameter gradients alike.
The block step and the recursion read the module's cached sampler;
the layer-wise engine draws each vertex's neighbours with
``repro.core.sage._draw``, which the ``deterministic_engine`` fixture
swaps out.

Under the real random sampler the training draws are distributional,
not bitwise, relative to the earlier per-target recursion: a block
draws each (side, step) frontier once per mini-batch, so a vertex that
several targets reach shares one neighbour sample where the recursion
drew one per target.  ``tests/core/test_trainer.py`` pins training
quality (loss decreases, blocks separate, positives outscore
negatives) rather than exact values for that reason.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import sage
from repro.core.sage import BipartiteGraphSAGE, _aggregate
from repro.core.trainer import SageTrainer
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.graph.sampling import NeighborSampler
from repro.nn.tensor import Tensor, no_grad
from repro.utils.config import SageConfig, TrainConfig


class DeterministicSampler:
    """Sample the first ``fanout`` neighbours, cycled — a pure function.

    Mimics the ``NeighborSampler`` interface and its ``(graph, rng)``
    signature; carries the module's ``_sample_rng`` so
    the per-graph sampler cache accepts it.
    """

    def __init__(self, graph, rng=None):
        self.graph = graph
        self.rng = rng

    def _take(self, csr, ids, fanout):
        out = np.full((len(ids), fanout), -1, dtype=np.int64)
        for row, vertex in enumerate(np.asarray(ids)):
            neigh = csr.indices[csr.indptr[vertex] : csr.indptr[vertex + 1]]
            if len(neigh):
                out[row] = neigh[np.arange(fanout) % len(neigh)]
        return out

    def sample_items_for_users(self, users, fanout):
        return self._take(self.graph._user_csr, users, fanout)

    def sample_users_for_items(self, items, fanout):
        return self._take(self.graph._item_csr, items, fanout)


@pytest.fixture()
def graph():
    return random_bipartite(30, 25, 120, feature_dim=6, rng=0)


@pytest.fixture()
def deterministic_engine(monkeypatch):
    """Route the layer-wise engine's draws through DeterministicSampler."""

    def draw(source, side, vertices, fanout, *_):
        sampler = DeterministicSampler(source)
        if side == "user":
            return sampler.sample_items_for_users(vertices, fanout)
        return sampler.sample_users_for_items(vertices, fanout)

    monkeypatch.setattr(sage, "_draw", draw)


def _module(graph, deterministic=True, **overrides):
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3), **overrides)
    mod = BipartiteGraphSAGE(
        graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=0
    )
    if deterministic:
        mod._sampler_cache = (graph, DeterministicSampler(graph, mod._sample_rng))
    return mod


IDS_WITH_DUPES = np.array([0, 3, 3, -1, 7, 0, 12, -1, 3])
NEGATIVES = np.array([5, 3, 21, 0, 5])


def _naive(mod, graph, ids, side):
    return mod._embed_naive(graph, np.asarray(ids), mod.config.num_steps, side)


def _block_one(mod, graph, ids, side):
    users, items = mod.embed_block(
        graph, **{"users" if side == "user" else "items": [ids]}
    )
    return (users or items)[0]


def _param_grads(mod):
    return {
        name: None if p.grad is None else p.grad.copy()
        for name, p in mod.named_parameters()
    }


def _assert_grads_match(got, want):
    assert got.keys() == want.keys()
    touched = 0
    for name, g in got.items():
        if g is None and want[name] is None:
            continue
        touched += 1
        np.testing.assert_allclose(g, want[name], rtol=0, atol=1e-12, err_msg=name)
    return touched


def _batch_loss(outputs):
    return sum(((z * z).sum() for z in outputs), Tensor(0.0))


class TestDedupEquivalence:
    """``embed_block`` (deduplicated frontiers) against ``_embed_naive``."""

    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max", "weighted_mean"])
    def test_dedup_matches_naive(self, graph, aggregator):
        mod = _module(graph, aggregator=aggregator)
        for side in ("user", "item"):
            a = _block_one(mod, graph, IDS_WITH_DUPES, side)
            b = _naive(mod, graph, IDS_WITH_DUPES, side)
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)

    def test_dedup_matches_naive_shared_space(self, graph):
        mod = _module(graph, shared_space=True)
        a = _block_one(mod, graph, IDS_WITH_DUPES, "user")
        b = _naive(mod, graph, IDS_WITH_DUPES, "user")
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)

    def test_invalid_ids_produce_zero_rows(self, graph):
        mod = _module(graph)
        z = _block_one(mod, graph, np.array([-1, 2, -1]), "user")
        assert np.allclose(z.data[[0, 2]], 0.0)
        assert not np.allclose(z.data[1], 0.0)

    def test_all_invalid_request(self, graph):
        mod = _module(graph)
        z = _block_one(mod, graph, np.array([-1, -1]), "item")
        assert z.shape == (2, 8) and np.all(z.data == 0.0)

    def test_gradients_match_naive(self, graph):
        mod = _module(graph)
        ids = np.array([0, 3, 3, 7, 0])
        mod.zero_grad()
        (_block_one(mod, graph, ids, "user") ** 2).sum().backward()
        block = _param_grads(mod)
        mod.zero_grad()
        (_naive(mod, graph, ids, "user") ** 2).sum().backward()
        assert _assert_grads_match(block, _param_grads(mod)) >= 4


class TestBlockStep:
    """One block serving a whole mini-batch: positives and negatives."""

    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max", "weighted_mean"])
    @pytest.mark.parametrize("shared_space", [False, True])
    def test_mixed_requests_match_naive(self, graph, aggregator, shared_space):
        mod = _module(graph, aggregator=aggregator, shared_space=shared_space)
        users = [IDS_WITH_DUPES, NEGATIVES, np.array([], dtype=np.int64)]
        items = [NEGATIVES, IDS_WITH_DUPES]
        mod.zero_grad()
        z_users, z_items = mod.embed_block(graph, users=users, items=items)
        assert [z.shape[0] for z in z_users] == [len(r) for r in users]
        assert [z.shape[0] for z in z_items] == [len(r) for r in items]
        _batch_loss(z_users + z_items).backward()
        block = _param_grads(mod)

        mod.zero_grad()
        naive = [_naive(mod, graph, r, "user") for r in users]
        naive += [_naive(mod, graph, r, "item") for r in items]
        for got, want in zip(z_users + z_items, naive):
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        _batch_loss(naive).backward()
        assert _assert_grads_match(block, _param_grads(mod)) >= 4

    def test_single_side_wrappers_match_block(self, graph):
        mod = _module(graph)
        z_users, z_items = mod.embed_block(graph, [IDS_WITH_DUPES], [NEGATIVES])
        np.testing.assert_array_equal(
            mod.embed_users(graph, IDS_WITH_DUPES).data, z_users[0].data
        )
        np.testing.assert_array_equal(
            mod.embed_items(graph, NEGATIVES).data, z_items[0].data
        )

    def test_one_draw_per_side_and_step(self, graph):
        mod = _module(graph, deterministic=False)
        with obs.observe() as session:
            mod.embed_block(graph, [IDS_WITH_DUPES, NEGATIVES], [NEGATIVES])
        assert session.counter("sampler.batches") == 2 * mod.config.num_steps

    @pytest.mark.parametrize("num_steps", [1, 2, 3])
    def test_trainer_step_samples_each_frontier_once(self, graph, num_steps):
        cfg = SageConfig(
            embedding_dim=8, num_steps=num_steps, neighbor_samples=(4, 3, 2)[:num_steps]
        )
        mod = BipartiteGraphSAGE(6, 6, cfg, rng=0)
        trainer = SageTrainer(mod, graph, TrainConfig(batch_size=16), rng=0)
        users, items = graph.edges[:16, 0], graph.edges[:16, 1]
        with obs.observe() as session:
            loss = trainer._step(users, items, np.ones(16))
        assert np.isfinite(loss)
        assert session.counter("sampler.batches") == 2 * num_steps


class TestLayerwiseEquivalence:
    @pytest.mark.usefixtures("deterministic_engine")
    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    def test_layerwise_matches_recursive(self, graph, aggregator):
        mod = _module(graph, aggregator=aggregator)
        zu_layer, zi_layer = mod.embed_all(graph, batch_size=7, mode="layerwise")
        with no_grad():
            zu_rec = _naive(mod, graph, np.arange(graph.num_users), "user").data
            zi_rec = _naive(mod, graph, np.arange(graph.num_items), "item").data
        np.testing.assert_allclose(zu_layer, zu_rec, atol=1e-12)
        np.testing.assert_allclose(zi_layer, zi_rec, atol=1e-12)

    @pytest.mark.usefixtures("deterministic_engine")
    def test_layerwise_matches_naive_recursive(self, graph):
        mod = _module(graph)
        zu_layer, _ = mod.embed_all(graph, mode="layerwise")
        with no_grad():
            zu_naive = _naive(mod, graph, np.arange(graph.num_users), "user").data
        np.testing.assert_allclose(zu_layer, zu_naive, atol=1e-12)

    def test_layerwise_default_is_finite_and_shaped(self, graph):
        mod = _module(graph, deterministic=False)  # real sampler
        zu, zi = mod.embed_all(graph, batch_size=11)
        assert zu.shape == (graph.num_users, 8)
        assert zi.shape == (graph.num_items, 8)
        assert np.all(np.isfinite(zu)) and np.all(np.isfinite(zi))

    def test_unknown_mode_rejected(self, graph):
        mod = _module(graph)
        with pytest.raises(ValueError):
            mod.embed_all(graph, mode="bogus")

    def test_streaming_mode_matches_layerwise_shapes(self, graph):
        # embed_all and a StreamingEmbedder at the model's sample_seed
        # are one computation.
        from repro.streaming import StreamingEmbedder

        mod = _module(graph, deterministic=False)
        zu, zi = mod.embed_all(graph, batch_size=11)
        streamed = StreamingEmbedder(
            mod, sample_seed=mod.sample_seed, batch_size=11
        ).full_embed(graph)
        assert zu.shape == (graph.num_users, 8)
        assert zu.tobytes() == streamed[0].tobytes()
        assert zi.tobytes() == streamed[1].tobytes()


class TestSamplerCache:
    def test_sampler_reused_per_graph(self, graph):
        mod = _module(graph, deterministic=False)
        assert mod._sampler(graph) is mod._sampler(graph)

    def test_sampler_rebuilt_for_new_graph(self, graph):
        mod = _module(graph, deterministic=False)
        first = mod._sampler(graph)
        other = random_bipartite(10, 8, 30, feature_dim=6, rng=1)
        assert mod._sampler(other) is not first

    def test_sampler_rebuilt_when_rng_swapped(self, graph):
        mod = _module(graph, deterministic=False)
        first = mod._sampler(graph)
        mod._sample_rng = np.random.default_rng(123)
        rebuilt = mod._sampler(graph)
        assert rebuilt is not first
        assert isinstance(rebuilt, NeighborSampler)


def _with_isolated_vertices(graph):
    """``graph`` plus two users and two items with no edges at all."""
    rng = np.random.default_rng(3)
    return BipartiteGraph(
        graph.num_users + 2,
        graph.num_items + 2,
        graph.edges,
        graph.edge_weights,
        user_features=np.vstack([graph.user_features, rng.normal(size=(2, 6))]),
        item_features=np.vstack([graph.item_features, rng.normal(size=(2, 6))]),
    )


class TestMaskSkip:
    """Skipping the all-ones mask multiply is exact, not approximate."""

    @staticmethod
    def _masked_reference(stacked, valid, agg):
        maskf = valid.astype(float)[:, :, None]
        if agg == "max":
            masked = np.where(valid[:, :, None], stacked, np.full(stacked.shape, -1e30))
            return masked.max(axis=1) * valid.any(axis=1)[:, None].astype(float)
        summed = (stacked * maskf).sum(axis=1)
        if agg == "sum":
            return summed
        counts = np.maximum(valid.sum(axis=1, keepdims=True), 1).astype(float)
        return summed * (1.0 / counts)

    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max", "weighted_mean"])
    @pytest.mark.parametrize("all_valid", [True, False])
    def test_aggregate_bytes_match_masked_reference(self, aggregator, all_valid):
        rng = np.random.default_rng(1)
        stacked = rng.normal(size=(9, 4, 5))
        valid = np.ones((9, 4), dtype=bool)
        if not all_valid:
            valid[2] = False  # an isolated vertex
            valid[5, 1:] = False
        want = self._masked_reference(stacked, valid, aggregator)
        got = _aggregate(Tensor(stacked), valid, aggregator)
        assert got.data.tobytes() == want.tobytes()

    @pytest.mark.usefixtures("deterministic_engine")
    @pytest.mark.parametrize("isolated", [False, True])
    def test_layerwise_matches_naive_with_and_without_isolated(self, graph, isolated):
        g = _with_isolated_vertices(graph) if isolated else graph
        mod = _module(g)
        zu, zi = mod.embed_all(g, batch_size=7)
        with no_grad():
            np.testing.assert_allclose(
                zu, _naive(mod, g, np.arange(g.num_users), "user").data, atol=1e-12
            )
            np.testing.assert_allclose(
                zi, _naive(mod, g, np.arange(g.num_items), "item").data, atol=1e-12
            )
        if isolated:
            z_block = _block_one(mod, g, np.arange(g.num_users), "user").data
            np.testing.assert_allclose(z_block, zu, atol=1e-12)
