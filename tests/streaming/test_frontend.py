"""Serving frontend: cache semantics, micro-batching, cold start, refresh."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.serving.recommend import stable_topk
from repro.streaming import ServingFrontend, StreamingEmbedder
from repro.utils.config import SageConfig


def _frontend(**kwargs):
    graph = random_bipartite(60, 40, 240, feature_dim=6, rng=0)
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
    model = BipartiteGraphSAGE(6, 6, cfg, rng=0)
    embedder = StreamingEmbedder(
        model, sample_seed=0, batch_size=16, degrade_threshold=1.0
    )
    frontend = ServingFrontend(graph, embedder, **kwargs)
    frontend.warm()
    return frontend


class TestServing:
    def test_slate_matches_inner_product_ranking(self):
        frontend = _frontend()
        slate = frontend.request(3, 5)
        z_user, z_item = frontend.embedder.embeddings
        scores = z_user[3] @ z_item.T
        expected = stable_topk(scores, 5)
        assert np.array_equal(slate, expected)

    def test_fixed_candidate_pool_restricts_slates(self):
        pool = np.array([1, 3, 5, 7, 9])
        frontend = _frontend(candidate_items=pool)
        slate = frontend.request(0, 3)
        assert set(slate) <= set(pool)

    def test_serve_preserves_request_order(self):
        frontend = _frontend(microbatch=2)
        users = np.array([5, 1, 5, 9, 1])
        slates = frontend.serve(users, 4)
        assert len(slates) == len(users)
        assert np.array_equal(slates[0], slates[2])
        assert np.array_equal(slates[1], slates[4])

    def test_microbatch_size_does_not_change_slates(self):
        reference = None
        users = np.arange(25) % 13
        for microbatch in (1, 4, 256):
            frontend = _frontend(microbatch=microbatch)
            slates = [s.tolist() for s in frontend.serve(users, 6)]
            if reference is None:
                reference = slates
            else:
                assert slates == reference

    def test_cold_frontend_raises(self):
        graph = random_bipartite(20, 15, 60, feature_dim=6, rng=0)
        cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
        model = BipartiteGraphSAGE(6, 6, cfg, rng=0)
        frontend = ServingFrontend(graph, StreamingEmbedder(model))
        with pytest.raises(RuntimeError, match="warm"):
            frontend.serve(np.array([0]), 5)

    def test_argument_validation(self):
        frontend = _frontend()
        with pytest.raises(ValueError, match="k"):
            frontend.serve(np.array([0]), 0)
        with pytest.raises(ValueError, match="microbatch"):
            _frontend(microbatch=0)

    def test_worker_count_rejected(self):
        # Streaming passes run in process; only workers=1 is accepted.
        graph = random_bipartite(20, 15, 60, feature_dim=6, rng=0)
        cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
        frontend = ServingFrontend(
            graph, StreamingEmbedder(BipartiteGraphSAGE(6, 6, cfg, rng=0))
        )
        with pytest.raises(ValueError, match="in process"):
            frontend.warm(workers=2)
        frontend.warm(workers=1)
        with pytest.raises(ValueError, match="in process"):
            frontend.refresh(workers=2)


class TestCache:
    def test_repeat_requests_hit(self):
        frontend = _frontend()
        frontend.request(7, 5)
        assert frontend.cache.hits == 0
        frontend.request(7, 5)
        assert frontend.cache.hits == 1
        assert frontend.hit_rate > 0

    def test_duplicates_within_one_call_hit_after_batch_flush(self):
        frontend = _frontend(microbatch=2)
        users = np.array([4, 8, 4, 8, 4])  # first batch caches 4 and 8
        frontend.serve(users, 5)
        assert frontend.cache.hits == 3

    def test_smaller_k_served_from_cached_prefix(self):
        frontend = _frontend()
        big = frontend.request(2, 8)
        small = frontend.request(2, 3)
        assert frontend.cache.hits == 1
        assert np.array_equal(small, big[:3])

    def test_larger_k_is_a_miss(self):
        frontend = _frontend()
        frontend.request(2, 3)
        frontend.request(2, 8)
        assert frontend.cache.hits == 0
        assert frontend.cache.misses == 2

    def test_cache_size_zero_never_hits(self):
        frontend = _frontend(cache_size=0)
        frontend.request(1, 5)
        frontend.request(1, 5)
        assert frontend.cache.hits == 0

    def test_latency_histogram_recorded(self):
        frontend = _frontend()
        with obs.observe() as session:
            frontend.serve(np.array([1, 2, 1]), 5)
        snap = session.registry.snapshot()
        assert snap["histograms"]["serving.latency_ms"]["count"] == 3
        assert snap["counters"]["serving.requests"] == 3


class TestRefresh:
    def test_refresh_invalidates_stale_slates(self):
        frontend = _frontend()
        before = frontend.request(0, 5)
        frontend.ingest(np.array([[0, 0], [0, 1]]))
        stats = frontend.refresh()
        assert stats.rows_recomputed > 0
        assert len(frontend.cache) == 0  # stale slates dropped
        after = frontend.request(0, 5)
        # The mutated user's neighbourhood changed; ranking may differ,
        # but the served slate must match a fresh scoring pass.
        z_user, z_item = frontend.embedder.embeddings
        assert np.array_equal(after, stable_topk(z_user[0] @ z_item.T, 5))
        assert before.shape == after.shape

    def test_auto_refresh_over_dirty_threshold(self):
        frontend = _frontend(refresh_dirty_threshold=0.0)
        frontend.request(0, 5)
        frontend.ingest(np.array([[1, 1]]))
        assert frontend.graph.dirty_fraction > 0
        frontend.request(0, 5)  # serve() refreshes first
        assert frontend.graph.dirty_fraction == 0.0

    def test_no_auto_refresh_without_threshold(self):
        frontend = _frontend()
        frontend.ingest(np.array([[1, 1]]))
        frontend.request(0, 5)
        assert frontend.graph.dirty_fraction > 0  # still stale


class TestColdStart:
    def test_new_user_served_by_fallback(self):
        class CannedFallback:
            def recommend(self, user, k):
                return np.arange(k)

        frontend = _frontend(fallback=CannedFallback())
        rng = np.random.default_rng(0)
        (user,) = frontend.graph.add_users(1, features=rng.normal(size=(1, 6)))
        slate = frontend.request(int(user), 4)
        assert np.array_equal(slate, np.arange(4))

    def test_new_user_without_fallback_gets_empty_slate(self):
        frontend = _frontend()
        rng = np.random.default_rng(0)
        (user,) = frontend.graph.add_users(1, features=rng.normal(size=(1, 6)))
        slate = frontend.request(int(user), 4)
        assert len(slate) == 0

    def test_refresh_warms_the_new_user(self):
        frontend = _frontend()
        rng = np.random.default_rng(0)
        (user,) = frontend.graph.add_users(1, features=rng.normal(size=(1, 6)))
        frontend.ingest(np.array([[user, 0]]))
        frontend.refresh()
        slate = frontend.request(int(user), 4)
        assert len(slate) == 4  # scored, not fallback

    def test_cold_start_counter(self):
        frontend = _frontend()
        rng = np.random.default_rng(0)
        (user,) = frontend.graph.add_users(1, features=rng.normal(size=(1, 6)))
        with obs.observe() as session:
            frontend.request(int(user), 4)
        counters = session.registry.snapshot()["counters"]
        assert counters["serving.cold_start"] == 1
