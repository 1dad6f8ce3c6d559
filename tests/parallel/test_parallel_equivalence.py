"""Seeded runs are bitwise-identical at any worker count.

The determinism contract: every parallelised hot path (layer-wise
``embed_all`` and the metrics its workers send back, k-means restarts +
chunked assignment, the CVR score table) must produce *exactly* the
same floats at ``workers=1`` and ``workers=4`` for the same seed, and
must leave no shared-memory segments behind.  Each run builds its model
fresh from the seed so the two sides consume identical RNG streams.
The layer-wise contract (``tests/test_layerwise_contract.py``) states
the embedding case over random graphs as well.
"""

import numpy as np
import pytest

from repro.clustering.kmeans import assign_to_centers, kmeans
from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.parallel import WorkerPool, active_segment_names, shutdown_pools
from repro.prediction.cvr_model import CVRModel
from repro.prediction.features import FeatureAssembler
from repro.serving.pipeline import cvr_score_table
from repro.utils.config import KMeansConfig, SageConfig

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_pools():
    yield
    shutdown_pools()  # don't leave warm 4-worker pools behind the module


def _sage_embeddings(workers):
    graph = random_bipartite(40, 30, 160, feature_dim=6, rng=0)
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
    mod = BipartiteGraphSAGE(
        graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=0
    )
    return mod.embed_all(graph, batch_size=7, mode="layerwise", workers=workers)


class TestEmbedAllEquivalence:
    def test_bitwise_identical_across_worker_counts(self):
        zu1, zi1 = _sage_embeddings(workers=1)
        zu4, zi4 = _sage_embeddings(workers=4)
        assert np.array_equal(zu1, zu4)
        assert np.array_equal(zi1, zi4)
        assert active_segment_names() == set()


class TestObsStateEquivalence:
    def test_histogram_state_identical_across_worker_counts(self):
        """Worker-merged histogram state (counts, sums, buckets and the
        derived percentiles) is identical at workers=1 and workers=4 —
        the ISSUE-4 bitwise contract extended to metrics."""
        from repro import obs

        snaps = {}
        for workers in (1, 4):
            with obs.observe() as session:
                _sage_embeddings(workers=workers)
            snaps[workers] = session.registry.snapshot()
        h1 = snaps[1]["histograms"]
        h4 = snaps[4]["histograms"]
        assert "sage.frontier_size" in h1
        assert h1 == h4
        assert snaps[1]["counters"] == snaps[4]["counters"]
        assert active_segment_names() == set()


class TestKMeansEquivalence:
    @pytest.mark.parametrize("algorithm", ["lloyd", "minibatch", "single_pass"])
    def test_restarts_bitwise_identical(self, algorithm):
        points = np.random.default_rng(3).normal(size=(300, 4))
        config = KMeansConfig(
            algorithm=algorithm, n_init=3, max_iter=15, batch_size=64
        )
        serial = kmeans(points, 5, config, rng=7, workers=1)
        fanned = kmeans(points, 5, config, rng=7, workers=4)
        assert np.array_equal(serial.centers, fanned.centers)
        assert np.array_equal(serial.labels, fanned.labels)
        assert serial.inertia == fanned.inertia
        assert active_segment_names() == set()

    def test_chunked_assignment_matches_serial(self):
        # n >= _ASSIGN_MIN_N (4096) takes the fixed-chunk fan-out path.
        points = np.random.default_rng(5).normal(size=(5000, 3))
        centers = np.random.default_rng(6).normal(size=(7, 3))
        labels_serial, inertia_serial = assign_to_centers(points, centers)
        with WorkerPool(4) as pool:
            labels_par, inertia_par = assign_to_centers(points, centers, pool=pool)
        assert np.array_equal(labels_serial, labels_par)
        assert inertia_serial == inertia_par
        assert active_segment_names() == set()


class TestScoreTableEquivalence:
    def test_bitwise_identical_across_worker_counts(self):
        rng = np.random.default_rng(11)
        assembler = FeatureAssembler(
            rng.normal(size=(64, 8)), rng.normal(size=(20, 8))
        )
        model = CVRModel(assembler.feature_dim, hidden=(16, 8), rng=0)
        candidates = np.arange(16)
        serial = cvr_score_table(
            model, assembler, 64, candidates, batch_users=8, workers=1
        )
        fanned = cvr_score_table(
            model, assembler, 64, candidates, batch_users=8, workers=4
        )
        assert np.array_equal(serial, fanned)
        assert active_segment_names() == set()
