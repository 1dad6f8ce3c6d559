"""Delta refresh is bitwise-identical to a full re-embed of the mutated graph.

The contract: after any edge/vertex delta,
``StreamingEmbedder.refresh(mutated)`` produces exactly the floats of
``full_embed(mutated)`` on a fresh embedder — for any delta size,
whether the delta path ran or degradation kicked in.
The trick is per-vertex sampling (a vertex's neighbour draw is addressed
by ``(seed, side, step, vertex, slot)``, not by stream position or task)
plus fixed-tile recomputation: the kernel computes only the affected
rows, with every matmul over whole tiles of one row count.  The contract
itself, including the fixed-seed edge, vertex and chained delta
examples, is property-tested in ``tests/test_layerwise_contract.py``;
the cases here are worked examples, regressions and the refresh's own
bookkeeping.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.sage import BipartiteGraphSAGE
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.streaming import IncrementalBipartiteGraph, StreamingEmbedder
from repro.utils.config import SageConfig


def _world(num_users=200, num_items=150, num_edges=800, seed=0):
    graph = random_bipartite(
        num_users, num_items, num_edges, feature_dim=6, rng=seed
    )
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
    model = BipartiteGraphSAGE(6, 6, cfg, rng=seed)
    return graph, model


def _mutate(graph, delta_edges, seed=1):
    rng = np.random.default_rng(seed)
    inc = IncrementalBipartiteGraph(graph)
    edges = np.stack(
        [
            rng.integers(0, graph.num_users, delta_edges),
            rng.integers(0, graph.num_items, delta_edges),
        ],
        axis=1,
    )
    inc.add_edges(edges)
    return inc


def _hub_world(num_users=30_000, num_items=2_000, hub_every=60, seed=0):
    """One edge per user plus a hub item adjacent to every ``hub_every``-th
    user, so a delta on the hub reaches every 64-row user chunk."""
    rng = np.random.default_rng(seed)
    users = np.arange(num_users)
    edges = np.concatenate(
        [
            np.stack([users, rng.integers(1, num_items, num_users)], axis=1),
            np.stack([users[::hub_every], np.zeros_like(users[::hub_every])], axis=1),
        ]
    )
    graph = BipartiteGraph(
        num_users,
        num_items,
        edges,
        user_features=rng.normal(size=(num_users, 6)),
        item_features=rng.normal(size=(num_items, 6)),
    )
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
    return graph, BipartiteGraphSAGE(6, 6, cfg, rng=seed)


def _assert_bitwise_equal(got, want):
    for side, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape
        assert np.array_equal(a, b), f"side {side} differs"


class TestBitwiseEquivalence:
    def test_new_vertex_in_partial_last_chunk(self):
        # The old last user chunk holds one row and a new user joins it.
        # Rows do not depend on the rows that share their task, so only
        # the new row is recomputed and the old one is kept as it was.
        graph = random_bipartite(1, 1, 1, feature_dim=5, rng=1)
        cfg = SageConfig(embedding_dim=1, num_steps=1, neighbor_samples=(2,))
        model = BipartiteGraphSAGE(5, 5, cfg, rng=1)
        embedder = StreamingEmbedder(
            model, sample_seed=3, batch_size=2, degrade_threshold=1.0
        )
        embedder.full_embed(graph)
        inc = IncrementalBipartiteGraph(graph)
        inc.add_users(1, features=np.ones((1, 5)))
        embedder.refresh(inc)
        assert embedder.last_stats.rows_recomputed == 1  # only the new row
        reference = StreamingEmbedder(model, sample_seed=3, batch_size=2)
        _assert_bitwise_equal(embedder.embeddings, reference.full_embed(inc.graph))

    def test_refresh_after_compaction_matches(self):
        graph, model = _world()
        embedder = StreamingEmbedder(
            model, sample_seed=0, batch_size=32, degrade_threshold=1.0
        )
        embedder.full_embed(graph)
        inc = _mutate(graph, 4)
        folded = inc.graph  # the fold changes the CSR, not which rows are stale
        assert inc.pending_edges == 0 and len(inc.dirty_users) > 0
        embedder.refresh(inc)
        assert inc.graph is folded
        reference = StreamingEmbedder(
            model, sample_seed=0, batch_size=32, degrade_threshold=1.0
        )
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_re_added_edge_keeps_untouched_rows_exact(self):
        # Re-adding an existing edge sums its weight in place; the merge
        # must not re-sort the edge list, or every CSR row (and with it
        # the neighbour draws of rows the refresh leaves alone) moves.
        graph, model = _world(3000, 2000, 12_000)
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=64)
        embedder.full_embed(graph)
        inc = IncrementalBipartiteGraph(graph)
        inc.add_edges(graph.edges[[len(graph.edges) // 2]])
        embedder.refresh(inc)
        assert embedder.last_stats.mode == "delta"
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=64)
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)


class TestRefreshStats:
    def test_sparse_delta_takes_the_delta_path(self):
        # Sparse graph + single-edge delta: the 2-hop affected set stays
        # well under the degradation threshold.
        graph, model = _world(800, 600, 1600)
        embedder = StreamingEmbedder(
            model, sample_seed=0, batch_size=64, degrade_threshold=0.9
        )
        embedder.full_embed(graph)
        inc = _mutate(graph, 1)
        embedder.refresh(inc)
        stats = embedder.last_stats
        assert stats.mode == "delta"
        assert not stats.degraded
        assert 0.0 < stats.recompute_fraction < 1.0
        assert stats.rows_recomputed < stats.rows_total

    def test_delta_spread_over_every_chunk_stays_row_granular(self):
        # Two edges on a hub item reach a row in every 64-row user task
        # at the last step; only those rows are recomputed.
        graph, model = _hub_world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=64)
        embedder.full_embed(graph)
        inc = IncrementalBipartiteGraph(graph)
        inc.add_edges(np.array([[1, 0], [7, 0]]))
        embedder.refresh(inc)
        stats = embedder.last_stats
        assert stats.mode == "delta"
        assert stats.recompute_fraction < 0.01
        assert stats.rows_recomputed >= graph.num_users // 60  # the hub's users
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=64)
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_large_delta_degrades_to_full(self):
        graph, model = _world()
        embedder = StreamingEmbedder(
            model, sample_seed=0, batch_size=32, degrade_threshold=0.05
        )
        embedder.full_embed(graph)
        inc = _mutate(graph, 40)
        embedder.refresh(inc)
        stats = embedder.last_stats
        assert stats.degraded
        assert stats.mode == "full"
        # Degraded output still equals the full re-embed.
        reference = StreamingEmbedder(
            model, sample_seed=0, batch_size=32, degrade_threshold=0.05
        )
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_cold_refresh_runs_full_embed(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.refresh(graph)  # nothing cached yet
        assert embedder.last_stats.mode == "full"
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        reference.full_embed(graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_noop_refresh_recomputes_nothing(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        before = tuple(a.copy() for a in embedder.embeddings)
        embedder.refresh(graph)  # no dirty vertices, same graph
        stats = embedder.last_stats
        assert stats.mode == "delta"
        assert stats.rows_recomputed == 0
        _assert_bitwise_equal(embedder.embeddings, before)

    def test_incremental_graph_dirty_cleared_on_success(self):
        graph, model = _world()
        embedder = StreamingEmbedder(
            model, sample_seed=0, batch_size=32, degrade_threshold=1.0
        )
        embedder.full_embed(graph)
        inc = _mutate(graph, 2)
        assert len(inc.dirty_users) > 0
        embedder.refresh(inc)
        assert len(inc.dirty_users) == 0
        assert len(inc.dirty_items) == 0


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestPinnedBytes:
    """``full_embed`` bytes, re-recorded when the compute dtype became
    float32: a given ``sample_seed`` must keep producing them, so the
    serving path's embeddings are unchanged."""

    @pytest.mark.parametrize(
        "world, model_seed, sample_seed, batch_size, fanouts, aggregator, want",
        [
            (
                (200, 150, 800, 0), 0, 0, 32, (4, 3), "mean",
                "3c1d7b7ef6f4bb4b237a0a9e010cc3a5bb7a127bbdec8998c786b854265605ee",
            ),
            (
                (120, 90, 500, 3), 5, 7, 16, (5, 2), "max",
                "811eb0ddec76de06917273da4f7ec4d51433c4136e88e84127e5add4b379a8e3",
            ),
            (
                (64, 300, 700, 11), 2, 123, 2048, (3, 3), "sum",
                "2590e82de8019d37274f160c63c0229dfadea2217fda92dad9a52865473fe7e1",
            ),
        ],
    )
    def test_full_embed_sha256(
        self, world, model_seed, sample_seed, batch_size, fanouts, aggregator, want
    ):
        num_users, num_items, num_edges, graph_seed = world
        graph = random_bipartite(
            num_users, num_items, num_edges, feature_dim=6, rng=graph_seed
        )
        cfg = SageConfig(
            embedding_dim=8, neighbor_samples=fanouts, aggregator=aggregator
        )
        model = BipartiteGraphSAGE(6, 6, cfg, rng=model_seed)
        embedder = StreamingEmbedder(
            model, sample_seed=sample_seed, batch_size=batch_size
        )
        assert _sha256(embedder.full_embed(graph)) == want


class TestErrorPaths:
    def test_embeddings_before_any_pass_raises(self):
        _, model = _world()
        embedder = StreamingEmbedder(model)
        with pytest.raises(RuntimeError, match="embed"):
            embedder.embeddings

    def test_shrunken_graph_rejected(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        smaller = random_bipartite(50, 40, 100, feature_dim=6, rng=0)
        with pytest.raises(ValueError, match="only grow"):
            embedder.refresh(smaller)

    def test_out_of_range_dirty_ids_rejected(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        with pytest.raises(ValueError):
            embedder.refresh(graph, dirty_users=np.array([graph.num_users + 5]))
