"""Seeded regression tests for the serving-layer bug squash.

Covers the three fixed defects: the unbounded ``ScoreTableRecommender``
top-k cache (now a bounded LRU), the ``TaxonomyRecommender`` back-fill
(previously an O(num_candidates) scan that skipped back-fill entirely
when no candidate set was given), and the per-impression scalar draw
loop in ``OnlineEnvironment.run_day`` (now vectorised per slate against
array-valued ground-truth oracles).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.serving.environment import OnlineEnvironment, Recommender
from repro.serving.recommend import (
    ScoreTableRecommender,
    TaxonomyRecommender,
    stable_topk,
)
from repro.taxonomy.builder import Taxonomy, Topic
from tests.oracles import run_day_loop


@pytest.fixture(scope="module")
def truth():
    return load_dataset("mini-taobao1", size="tiny", seed=0).ground_truth


class TestScoreTableCacheBound:
    def test_cache_never_exceeds_bound(self):
        rng = np.random.default_rng(0)
        scores = rng.random((500, 20))
        rec = ScoreTableRecommender(scores, np.arange(20), cache_size=32)
        for user in range(500):
            rec.recommend(user, 5)
        assert len(rec._topk_cache) <= 32
        assert rec._topk_cache.evictions == 500 - 32

    def test_eviction_preserves_correctness(self):
        rng = np.random.default_rng(1)
        scores = rng.random((100, 15))
        bounded = ScoreTableRecommender(scores, np.arange(15), cache_size=4)
        unbounded = ScoreTableRecommender(scores, np.arange(15), cache_size=1000)
        order = rng.integers(0, 100, size=400)  # revisits evicted users
        for user in order:
            assert np.array_equal(
                bounded.recommend(int(user), 6), unbounded.recommend(int(user), 6)
            )

    def test_repeat_users_hit_the_cache(self):
        scores = np.random.default_rng(2).random((10, 8))
        rec = ScoreTableRecommender(scores, np.arange(8))
        rec.recommend(3, 4)
        rec.recommend(3, 4)
        assert rec._topk_cache.hits == 1

    def test_cache_size_zero_disables(self):
        scores = np.random.default_rng(3).random((5, 8))
        rec = ScoreTableRecommender(scores, np.arange(8), cache_size=0)
        first = rec.recommend(0, 3)
        second = rec.recommend(0, 3)
        assert np.array_equal(first, second)
        assert len(rec._topk_cache) == 0


class TestStableTopk:
    @pytest.mark.parametrize("k", [1, 3, 7, 12])
    def test_matches_stable_argsort(self, k):
        rng = np.random.default_rng(4)
        for _ in range(20):
            # Quantised scores force ties, the case partitioning can break.
            row = np.round(rng.random(12), 1)
            expected = np.argsort(-row, kind="mergesort")[:k]
            assert stable_topk(row, k).tolist() == expected.tolist()

    def test_k_at_least_n_returns_full_ranking(self):
        row = np.array([0.3, 0.9, 0.3, 0.1])
        assert stable_topk(row, 10).tolist() == [1, 0, 2, 3]


class TestTaxonomyBackfill:
    def _one_topic_taxonomy(self):
        taxonomy = Taxonomy(num_levels=1)
        taxonomy.topics["L1C0"] = Topic(
            "L1C0", 1, 0, np.array([0]), np.array([], dtype=int)
        )
        return taxonomy

    def test_backfill_without_candidate_set(self):
        # The original implementation skipped back-fill entirely when
        # candidate_set was None: short-history users got short slates.
        clicks = np.array([1.0, 5.0, 9.0, 2.0])
        rec = TaxonomyRecommender(self._one_topic_taxonomy(), {0: ["L1C0"]}, clicks, rng=0)
        slate = rec.recommend(0, 4)
        assert len(slate) == 4
        assert slate[0] == 0  # topic item first
        assert slate.tolist()[1:] == [2, 1, 3]  # then global popularity

    def test_backfill_ranked_once_not_rescanned(self):
        clicks = np.arange(50, dtype=float)
        rec = TaxonomyRecommender(
            self._one_topic_taxonomy(), {}, clicks, candidate_items=np.arange(50), rng=0
        )
        # Ranked pool is precomputed at construction, most-popular first.
        assert rec._ranked_candidates[0] == 49
        slate = rec.recommend(7, 3)
        assert slate.tolist() == [49, 48, 47]

    def test_backfill_respects_candidate_set(self):
        clicks = np.array([1.0, 5.0, 9.0, 2.0])
        rec = TaxonomyRecommender(
            self._one_topic_taxonomy(),
            {0: ["L1C0"]},
            clicks,
            candidate_items=np.array([0, 1, 3]),
            rng=0,
        )
        slate = rec.recommend(0, 4)
        assert 2 not in slate  # not a candidate, despite top popularity
        assert len(slate) == 3  # pool exhausted


class _FixedRecommender(Recommender):
    def __init__(self, num_items, slate_size, seed):
        rng = np.random.default_rng(seed)
        self._slates = {}
        self._num_items = num_items
        self._slate_size = slate_size
        self._rng = rng

    def recommend(self, user, k):
        key = (user, k)
        if key not in self._slates:
            self._slates[key] = self._rng.choice(
                self._num_items, size=k, replace=False
            )
        return self._slates[key]


class TestRunDayVectorisation:
    def test_vector_oracles_match_scalar(self, truth):
        rng = np.random.default_rng(5)
        for user in rng.integers(0, len(truth.user_affinity), size=8):
            items = rng.choice(len(truth.item_leaf), size=12, replace=False)
            clicks = truth.click_probabilities(int(user), items)
            buys = truth.purchase_probabilities(int(user), items)
            for pos, item in enumerate(items):
                assert clicks[pos] == truth.click_probability(int(user), int(item))
                assert buys[pos] == truth.purchase_probability(int(user), int(item))

    def test_seeded_run_day_deterministic(self, truth):
        visitors = np.arange(40)
        rec = _FixedRecommender(len(truth.item_leaf), 5, seed=0)
        a = OnlineEnvironment(truth, rng=7).run_day(rec, visitors, 5)
        b = OnlineEnvironment(truth, rng=7).run_day(rec, visitors, 5)
        assert a == b

    def test_distributionally_matches_reference_loop(self, truth):
        # The vectorised stream consumes uniforms in a different order
        # than the scalar reference, so single runs differ — but the
        # metrics must agree in distribution.  Compare means across
        # seeds with a generous band.
        visitors = np.arange(80)
        num_items = len(truth.item_leaf)
        vec_ctr, loop_ctr = [], []
        for seed in range(12):
            rec = _FixedRecommender(num_items, 5, seed=seed)
            vec = OnlineEnvironment(truth, rng=seed).run_day(rec, visitors, 5)
            loop = run_day_loop(OnlineEnvironment(truth, rng=seed), rec, visitors, 5)
            assert vec.impressions == loop.impressions
            vec_ctr.append(vec.ctr)
            loop_ctr.append(loop.ctr)
        assert np.mean(vec_ctr) == pytest.approx(np.mean(loop_ctr), abs=0.02)

    def test_empty_slate_skipped(self, truth):
        class EmptyRecommender(Recommender):
            def recommend(self, user, k):
                return np.empty(0, dtype=np.int64)

        metrics = OnlineEnvironment(truth, rng=0).run_day(
            EmptyRecommender(), np.arange(10), 5
        )
        assert metrics.impressions == 0
        assert metrics.clicks == 0
