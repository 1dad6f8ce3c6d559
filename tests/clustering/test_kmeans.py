"""K-means variants: quality, invariants, and degenerate inputs."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.kmeans import assign_to_centers, kmeans, kmeans_plus_plus
from repro.utils.config import KMeansConfig


def _blobs(n_per=30, k=3, dim=4, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(k, dim))
    points = np.concatenate(
        [centers[i] + rng.normal(scale=spread, size=(n_per, dim)) for i in range(k)]
    )
    labels = np.repeat(np.arange(k), n_per)
    return points, labels


def _agreement(pred, truth):
    """Best-case label agreement via majority mapping (purity)."""
    total = 0
    for c in np.unique(pred):
        members = truth[pred == c]
        total += np.bincount(members).max()
    return total / len(truth)


ALGOS = ["lloyd", "minibatch", "single_pass"]


class TestQuality:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_recovers_blobs(self, algorithm):
        points, truth = _blobs()
        result = kmeans(points, 3, KMeansConfig(algorithm=algorithm), rng=0)
        assert _agreement(result.labels, truth) > 0.9

    def test_lloyd_at_least_as_good_as_single_pass(self):
        points, _ = _blobs(seed=3)
        lloyd = kmeans(points, 3, KMeansConfig(algorithm="lloyd"), rng=0)
        single = kmeans(points, 3, KMeansConfig(algorithm="single_pass"), rng=0)
        assert lloyd.inertia <= single.inertia * 1.2

    def test_n_init_improves_or_ties(self):
        points, _ = _blobs(k=4, seed=5)
        one = kmeans(points, 4, KMeansConfig(n_init=1), rng=7)
        many = kmeans(points, 4, KMeansConfig(n_init=5), rng=7)
        assert many.inertia <= one.inertia + 1e-9


class TestInvariants:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_labels_match_nearest_center(self, algorithm):
        points, _ = _blobs()
        result = kmeans(points, 3, KMeansConfig(algorithm=algorithm), rng=0)
        relabeled, inertia = assign_to_centers(points, result.centers)
        assert np.array_equal(relabeled, result.labels)
        assert inertia == pytest.approx(result.inertia)

    def test_labels_dense_range(self):
        points, _ = _blobs()
        result = kmeans(points, 3, rng=0)
        assert result.labels.min() >= 0
        assert result.labels.max() < result.n_clusters

    def test_deterministic_given_seed(self):
        points, _ = _blobs()
        a = kmeans(points, 3, rng=11)
        b = kmeans(points, 3, rng=11)
        assert np.array_equal(a.labels, b.labels)


class TestDegenerate:
    def test_k_clamped_to_distinct_points(self):
        points = np.zeros((10, 2))
        result = kmeans(points, 5, rng=0)
        assert result.n_clusters == 1
        assert result.inertia == pytest.approx(0.0)

    def test_k_equals_n(self):
        points = np.arange(8, dtype=float).reshape(4, 2)
        result = kmeans(points, 4, rng=0)
        assert result.n_clusters == 4
        assert result.inertia == pytest.approx(0.0)

    def test_single_point(self):
        result = kmeans(np.array([[1.0, 2.0]]), 3, rng=0)
        assert result.n_clusters == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 2)), 2)

    def test_bad_k_raises(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 0)

    def test_1d_points_raise(self):
        with pytest.raises(ValueError):
            kmeans(np.ones(5), 2)

    def test_empty_cluster_reseeded(self):
        # Outlier far away forces a potential empty cluster on re-assign.
        points = np.vstack([np.zeros((20, 2)), np.ones((20, 2)), [[100.0, 100.0]]])
        result = kmeans(points, 3, KMeansConfig(algorithm="lloyd"), rng=0)
        assert len(np.unique(result.labels)) == 3


class TestRestartSelection:
    def test_multi_restart_bitwise_deterministic(self):
        points, _ = _blobs(k=4, seed=5)
        a = kmeans(points, 4, KMeansConfig(n_init=5), rng=7)
        b = kmeans(points, 4, KMeansConfig(n_init=5), rng=7)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    def test_tied_inertia_keeps_first_submitted_restart(self, monkeypatch):
        km = importlib.import_module("repro.clustering.kmeans")

        points = np.zeros((6, 2)) + np.arange(6)[:, None]

        def fake_restart(task, context):
            index, _ = task
            return km.KMeansResult(
                centers=np.zeros((2, 2)),
                labels=np.zeros(len(points), dtype=np.int64),
                inertia=1.0,  # every restart ties
                n_iter=index,  # marker: which restart won
            )

        monkeypatch.setattr(km, "_restart_task", fake_restart)
        result = km.kmeans(points, 2, KMeansConfig(n_init=4), rng=0, workers=1)
        assert result.n_iter == 0  # submission order breaks the tie

    def test_strictly_better_restart_wins(self, monkeypatch):
        km = importlib.import_module("repro.clustering.kmeans")

        points = np.zeros((6, 2)) + np.arange(6)[:, None]

        def fake_restart(task, context):
            index, _ = task
            return km.KMeansResult(
                centers=np.zeros((2, 2)),
                labels=np.zeros(len(points), dtype=np.int64),
                inertia=float(10 - index),
                n_iter=index,
            )

        monkeypatch.setattr(km, "_restart_task", fake_restart)
        result = km.kmeans(points, 2, KMeansConfig(n_init=4), rng=0, workers=1)
        assert result.n_iter == 3  # lowest inertia, regardless of order


class TestSeeding:
    def test_plus_plus_spreads_centers(self):
        points, _ = _blobs(k=3, spread=0.1, seed=2)
        centers = kmeans_plus_plus(points, 3, np.random.default_rng(0))
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(dists) > 1.0  # blob centers are ~5 apart


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 200), k=st.integers(1, 6))
def test_property_inertia_nonnegative_and_centers_finite(seed, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(25, 3))
    result = kmeans(points, k, rng=rng)
    assert result.inertia >= 0
    assert np.all(np.isfinite(result.centers))
    assert len(result.labels) == 25


class TestVectorisedVariantsMatchLoops:
    """The chunked/vectorised updates are regression-tested against the
    retained per-point reference loops."""

    @pytest.mark.parametrize("seed", range(6))
    def test_single_pass_chunk1_bitwise_equal(self, seed):
        from repro.clustering.kmeans import _single_pass
        from tests.oracles import single_pass_kmeans_loop

        points = np.random.default_rng(seed).normal(size=(80, 5))
        fast = _single_pass(points, 7, np.random.default_rng(seed), chunk_size=1)
        slow = single_pass_kmeans_loop(points, 7, np.random.default_rng(seed))
        np.testing.assert_array_equal(fast.labels, slow.labels)
        np.testing.assert_array_equal(fast.centers, slow.centers)
        assert fast.inertia == slow.inertia

    @pytest.mark.parametrize("seed", range(6))
    def test_single_pass_chunked_close_to_loop(self, seed):
        from repro.clustering.kmeans import _single_pass
        from tests.oracles import single_pass_kmeans_loop

        points, _ = _blobs(n_per=40, k=4, dim=3, seed=seed)
        fast = _single_pass(points, 4, np.random.default_rng(seed))
        slow = single_pass_kmeans_loop(points, 4, np.random.default_rng(seed))
        # Chunked assignment uses stale centres within a chunk, so only
        # the clustering quality (not the arithmetic) is expected to agree.
        assert fast.centers.shape == slow.centers.shape
        assert fast.inertia <= 1.5 * slow.inertia + 1e-9
        assert len(np.unique(fast.labels)) == len(np.unique(slow.labels))

    @pytest.mark.parametrize("seed", range(6))
    def test_minibatch_matches_loop(self, seed):
        from repro.clustering.kmeans import _minibatch
        from tests.oracles import minibatch_kmeans_loop

        points, _ = _blobs(n_per=30, k=3, dim=4, seed=seed)
        cfg = KMeansConfig(algorithm="minibatch", max_iter=10, batch_size=32)
        fast = _minibatch(points, 3, cfg, np.random.default_rng(seed))
        slow = minibatch_kmeans_loop(points, 3, cfg, np.random.default_rng(seed))
        np.testing.assert_allclose(fast.centers, slow.centers, atol=1e-9)
        np.testing.assert_array_equal(fast.labels, slow.labels)

    def test_running_mean_update_is_running_mean(self):
        from repro.clustering.kmeans import _running_mean_update

        centers = np.zeros((2, 2))
        counts = np.array([1.0, 1.0])
        batch = np.array([[2.0, 2.0], [4.0, 4.0], [9.0, 9.0]])
        labels = np.array([0, 0, 1])
        _running_mean_update(centers, counts, batch, labels)
        # centre 0 absorbs two points: ((0*1)+2+4)/(1+2) = 2
        np.testing.assert_allclose(centers[0], [2.0, 2.0])
        np.testing.assert_allclose(centers[1], [4.5, 4.5])
        np.testing.assert_array_equal(counts, [3.0, 2.0])


class TestDistinctClamp:
    def test_duplicates_still_clamp(self):
        points = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]]), (5, 1))
        result = kmeans(points, n_clusters=5, rng=0)
        assert result.n_clusters == 2
        assert len(np.unique(result.labels)) == 2

    def test_projection_collision_does_not_overclamp(self):
        # Rows chosen to collide under the 1-D screening projection; the
        # clamp must fall back to exact row uniqueness and keep k=2.
        points = np.array([[1.0, 2.0], [2.0, 1.5], [1.0, 2.0], [2.0, 1.5]])
        result = kmeans(points, n_clusters=2, rng=0)
        assert result.n_clusters == 2

    def test_distinct_points_skip_unique_scan(self, monkeypatch):
        import importlib

        km = importlib.import_module("repro.clustering.kmeans")
        points, _ = _blobs(n_per=20, k=3, dim=4, seed=1)
        real_unique = np.unique

        def guarded(arr, *args, **kwargs):
            if kwargs.get("axis") == 0:
                raise AssertionError("np.unique(points, axis=0) should be skipped")
            return real_unique(arr, *args, **kwargs)

        monkeypatch.setattr(km.np, "unique", guarded)
        result = km.kmeans(points, n_clusters=3, rng=0)
        assert result.n_clusters == 3
