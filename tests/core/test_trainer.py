"""Unsupervised GraphSAGE training on planted-structure graphs."""

import numpy as np
import pytest

from repro.core.sage import BipartiteGraphSAGE
from repro.core.trainer import SageTrainer
from repro.utils.config import SageConfig, TrainConfig


@pytest.fixture(scope="module")
def trained(block_graph_module):
    graph, user_blocks, item_blocks = block_graph_module
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(5, 3))
    module = BipartiteGraphSAGE(
        graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=0
    )
    trainer = SageTrainer(
        module, graph, TrainConfig(epochs=8, batch_size=128, learning_rate=5e-3), rng=0
    )
    result = trainer.fit()
    return graph, user_blocks, item_blocks, module, result


@pytest.fixture(scope="module")
def block_graph_module():
    from repro.graph.generators import block_bipartite

    return block_bipartite(
        n_blocks=3, users_per_block=15, items_per_block=12, p_in=0.4, p_out=0.02, rng=0
    )


class TestTraining:
    def test_loss_decreases(self, trained):
        *_, result = trained
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_loss_history_length(self, trained):
        *_, result = trained
        assert len(result.epoch_losses) == 8

    def test_embeddings_separate_blocks(self, trained):
        graph, user_blocks, _, module, _ = trained
        zu, _ = module.embed_all(graph)
        centroids = np.stack([zu[user_blocks == b].mean(axis=0) for b in range(3)])
        within = float(np.mean([zu[user_blocks == b].std() for b in range(3)]))
        between = float(
            np.mean(
                [
                    np.linalg.norm(centroids[i] - centroids[j])
                    for i in range(3)
                    for j in range(i + 1, 3)
                ]
            )
        )
        assert between > within

    def test_positive_pairs_score_above_negatives(self, trained):
        graph, *_, module, _ = trained
        zu, zi = module.embed_all(graph)
        pos = np.mean(
            [zu[u] @ zi[i] for u, i in graph.edges[:100]]
        )
        rng = np.random.default_rng(0)
        neg = np.mean(
            [
                zu[rng.integers(graph.num_users)] @ zi[rng.integers(graph.num_items)]
                for _ in range(100)
            ]
        )
        assert pos > neg

    def test_zero_epochs_is_noop(self, block_graph_module):
        graph, *_ = block_graph_module
        cfg = SageConfig(embedding_dim=4)
        module = BipartiteGraphSAGE(
            graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=0
        )
        result = SageTrainer(module, graph, TrainConfig(epochs=0), rng=0).fit()
        assert result.epoch_losses == []
        assert np.isnan(result.final_loss)

    def test_deterministic_given_seed(self, block_graph_module):
        graph, *_ = block_graph_module

        def run():
            cfg = SageConfig(embedding_dim=4, neighbor_samples=(3, 2))
            module = BipartiteGraphSAGE(
                graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=3
            )
            trainer = SageTrainer(
                module, graph, TrainConfig(epochs=1, batch_size=64), rng=3
            )
            return trainer.fit().final_loss

        assert run() == pytest.approx(run())

    @pytest.mark.parametrize(
        "graph_seed, model_seed, trainer_seed, want",
        [
            (0, 0, 0, ["0x1.05b04bdb9f333p+3", "0x1.da6136d54199ap+2", "0x1.b10632ef7199ap+2"]),
            (4, 1, 9, ["0x1.30435ee96e666p+3", "0x1.0f66c08030ccdp+3", "0x1.e2ac68e58b333p+2"]),
        ],
    )
    def test_seeded_losses_pinned(self, graph_seed, model_seed, trainer_seed, want):
        # Exact per-epoch losses: training draws are a pure function of
        # (sample_seed, epoch, batch, side, step, vertex, slot) and the
        # forward runs the tiled kernel, so any change to either moves them.
        from repro.graph.generators import random_bipartite

        graph = random_bipartite(60, 50, 300, feature_dim=6, rng=graph_seed)
        cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
        module = BipartiteGraphSAGE(6, 6, cfg, rng=model_seed)
        result = SageTrainer(
            module, graph, TrainConfig(epochs=3, batch_size=64), rng=trainer_seed
        ).fit()
        assert [loss.hex() for loss in result.epoch_losses] == want

    @pytest.mark.parametrize(
        "variant, want",
        [
            (
                {"similarity_head": "mlp"},
                ["0x1.e0fe0ab096666p+2", "0x1.abf8390b9b333p+2", "0x1.801d059a2999ap+2"],
            ),
            (
                {"similarity_head": "dot"},
                ["0x1.06e48132a6666p+3", "0x1.02ec5615f0ccdp+3", "0x1.f8f7185e46666p+2"],
            ),
            (
                {"shared_space": True},
                ["0x1.2c0f86021399ap+3", "0x1.08dbfd3894000p+3", "0x1.d91f1e2ce4000p+2"],
            ),
        ],
    )
    def test_seeded_losses_pinned_per_variant(self, variant, want):
        # The other similarity heads and the shared-space module, pinned
        # like the hybrid head above (L2 and gradient clipping on).
        from repro.graph.generators import random_bipartite

        graph = random_bipartite(60, 50, 300, feature_dim=6, rng=2)
        cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3), **variant)
        module = BipartiteGraphSAGE(6, 6, cfg, rng=5)
        result = SageTrainer(
            module, graph, TrainConfig(epochs=3, batch_size=64), rng=6
        ).fit()
        assert [loss.hex() for loss in result.epoch_losses] == want
