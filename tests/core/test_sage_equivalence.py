"""Equivalence of the block step, the recursion and the layer-wise pass.

Every neighbour draw is a pure function of (sample_seed, key, side,
step, vertex, slot) (``repro.core.sage._draw``), and every matmul runs
whole tiles, so under one key the block mini-batch step
(``embed_block``), the naive per-occurrence recursion (``embed_naive``)
and the layer-wise ``embed_all`` (the serving key) give the same bytes
for every valid row, and the block and the recursion the same parameter
gradients.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.sage import BipartiteGraphSAGE, _aggregate
from repro.core.trainer import SageTrainer
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.nn.tensor import Tensor, no_grad
from repro.utils.config import SageConfig, TrainConfig
from tests.oracles import embed_naive


@pytest.fixture()
def graph():
    return random_bipartite(30, 25, 120, feature_dim=6, rng=0)


def _module(graph, **overrides):
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3), **overrides)
    return BipartiteGraphSAGE(
        graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=0
    )


IDS_WITH_DUPES = np.array([0, 3, 3, -1, 7, 0, 12, -1, 3])
NEGATIVES = np.array([5, 3, 21, 0, 5])


def _naive(mod, graph, ids, side):
    return embed_naive(mod, graph, ids, mod.config.num_steps, side)


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


def _assert_same_rows(got, want, ids):
    """Valid rows bitwise equal; rows of -1 ids zero in both."""
    ids = np.asarray(ids)
    valid = ids >= 0
    assert got.shape == want.shape
    assert got[valid].tobytes() == want[valid].tobytes()
    assert np.all(got[~valid] == 0.0) and np.all(want[~valid] == 0.0)


class TestDedupEquivalence:
    """``embed_block`` (deduplicated frontiers) against ``embed_naive``."""

    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    def test_dedup_matches_naive(self, graph, aggregator):
        mod = _module(graph, aggregator=aggregator)
        for side in ("user", "item"):
            a = _block_one(mod, graph, IDS_WITH_DUPES, side)
            b = _naive(mod, graph, IDS_WITH_DUPES, side)
            _assert_same_rows(a.data, b.data, IDS_WITH_DUPES)

    def test_dedup_matches_naive_shared_space(self, graph):
        mod = _module(graph, shared_space=True)
        a = _block_one(mod, graph, IDS_WITH_DUPES, "user")
        b = _naive(mod, graph, IDS_WITH_DUPES, "user")
        _assert_same_rows(a.data, b.data, IDS_WITH_DUPES)

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

    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    @pytest.mark.parametrize("shared_space", [False, True])
    def test_mixed_requests_match_naive(self, graph, aggregator, shared_space):
        mod = _module(graph, aggregator=aggregator, shared_space=shared_space)
        users = [IDS_WITH_DUPES, NEGATIVES, np.array([], dtype=np.int64)]
        items = [NEGATIVES, IDS_WITH_DUPES]
        key = (2, 5)  # a training batch's stream
        mod.zero_grad()
        z_users, z_items = mod.embed_block(graph, users=users, items=items, key=key)
        assert [z.shape[0] for z in z_users] == [len(r) for r in users]
        assert [z.shape[0] for z in z_items] == [len(r) for r in items]
        _batch_loss(z_users + z_items).backward()
        block = _param_grads(mod)

        mod.zero_grad()
        steps = mod.config.num_steps
        naive = [embed_naive(mod, graph, r, steps, "user", key) for r in users]
        naive += [embed_naive(mod, graph, r, steps, "item", key) for r in items]
        for got, want, ids in zip(z_users + z_items, naive, users + items):
            _assert_same_rows(got.data, want.data, ids)
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

    def test_training_keys_draw_their_own_streams(self, graph):
        mod = _module(graph)
        ids = np.arange(graph.num_users)

        def rows(key):
            return mod.embed_block(graph, users=[ids], key=key)[0][0].data.tobytes()

        assert rows((0, 1)) == rows((0, 1))
        assert len({rows(()), rows((0, 1)), rows((1, 0))}) == 3

    def test_one_draw_per_side_and_step(self, graph):
        mod = _module(graph)
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
            loss = trainer._step(users, items, np.ones(16), key=(0, 0))
        assert np.isfinite(loss)
        assert session.counter("sampler.batches") == 2 * num_steps


class TestLayerwiseEquivalence:
    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    def test_layerwise_matches_recursive(self, graph, aggregator):
        mod = _module(graph, aggregator=aggregator)
        zu_layer, zi_layer = mod.embed_all(graph, batch_size=7, mode="layerwise")
        with no_grad():
            zu_rec = _naive(mod, graph, np.arange(graph.num_users), "user").data
            zi_rec = _naive(mod, graph, np.arange(graph.num_items), "item").data
        assert zu_layer.tobytes() == zu_rec.tobytes()
        assert zi_layer.tobytes() == zi_rec.tobytes()

    def test_layerwise_matches_naive_recursive(self, graph):
        mod = _module(graph)
        zu_layer, _ = mod.embed_all(graph, mode="layerwise")
        with no_grad():
            zu_naive = _naive(mod, graph, np.arange(graph.num_users), "user").data
        assert zu_layer.tobytes() == zu_naive.tobytes()

    def test_layerwise_default_is_finite_and_shaped(self, graph):
        mod = _module(graph)
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

        mod = _module(graph)
        zu, zi = mod.embed_all(graph, batch_size=11)
        streamed = StreamingEmbedder(
            mod, sample_seed=mod.sample_seed, batch_size=11
        ).full_embed(graph)
        assert zu.shape == (graph.num_users, 8)
        assert zu.tobytes() == streamed[0].tobytes()
        assert zi.tobytes() == streamed[1].tobytes()


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

    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
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

    @pytest.mark.parametrize("isolated", [False, True])
    def test_layerwise_matches_naive_with_and_without_isolated(self, graph, isolated):
        g = _with_isolated_vertices(graph) if isolated else graph
        mod = _module(g)
        zu, zi = mod.embed_all(g, batch_size=7)
        with no_grad():
            assert zu.tobytes() == _naive(mod, g, np.arange(g.num_users), "user").data.tobytes()
            assert zi.tobytes() == _naive(mod, g, np.arange(g.num_items), "item").data.tobytes()
        if isolated:
            z_block = _block_one(mod, g, np.arange(g.num_users), "user").data
            assert z_block.tobytes() == zu.tobytes()
