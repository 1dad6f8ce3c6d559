"""End-to-end instrumentation: a HiGNN run reports spans + counters."""

import numpy as np
import pytest

from repro import obs
from repro.clustering.kmeans import kmeans
from repro.core.hignn import HiGNN
from repro.core.sage import BipartiteGraphSAGE
from repro.core.trainer import SageTrainer
from repro.graph.sampling import sample_neighbors
from repro.utils.config import HiGNNConfig, SageConfig, TrainConfig


@pytest.fixture()
def hignn_session(small_random_graph):
    config = HiGNNConfig(
        levels=2, train=TrainConfig(epochs=2, batch_size=32), min_clusters=2
    )
    with obs.observe() as session:
        hierarchy = HiGNN(config, seed=0).fit(small_random_graph)
    return session, hierarchy


class TestHiGNNTrace:
    def test_one_level_span_per_level_built(self, hignn_session):
        session, hierarchy = hignn_session
        levels = [
            sp for sp, _ in session.tracer.all_spans() if sp.name == "hignn.level"
        ]
        assert len(levels) == len(hierarchy.levels)
        assert sorted(sp.attrs["level"] for sp in levels) == list(
            range(1, len(hierarchy.levels) + 1)
        )

    def test_level_children_cover_train_cluster_coarsen(self, hignn_session):
        session, _ = hignn_session
        for sp, _ in session.tracer.all_spans():
            if sp.name != "hignn.level":
                continue
            child_names = {c.name for c in sp.children}
            assert {"hignn.train", "hignn.cluster", "hignn.coarsen"} <= child_names

    def test_level_spans_closed_and_contain_children(self, hignn_session):
        # hignn.level is opened via `with span(...)`: every level span must
        # be finished and its interval must cover its children's intervals
        # (a span parked in a variable pre-`with` would start too early).
        session, _ = hignn_session
        levels = [
            sp for sp, _ in session.tracer.all_spans() if sp.name == "hignn.level"
        ]
        assert levels
        for sp in levels:
            assert sp.end_s is not None
            for child in sp.children:
                assert child.start_s >= sp.start_s
                assert child.end_s is not None and child.end_s <= sp.end_s

    def test_epoch_spans_carry_loss_and_throughput(self, hignn_session):
        session, _ = hignn_session
        epochs = [
            sp for sp, _ in session.tracer.all_spans() if sp.name == "train.epoch"
        ]
        assert epochs
        for sp in epochs:
            assert np.isfinite(sp.attrs["loss"])
            assert sp.attrs["edges"] > 0
            assert sp.attrs["edges_per_sec"] > 0

    def test_core_counters_nonzero(self, hignn_session):
        session, _ = hignn_session
        for name in (
            "sage.vertices_embedded",
            "sampler.samples_drawn",
            "kmeans.iterations",
            "train.edges_seen",
            "coarsen.runs",
        ):
            assert session.counter(name) > 0, name

    def test_frontier_histogram_recorded(self, hignn_session):
        session, _ = hignn_session
        hist = session.registry.snapshot()["histograms"]["sage.frontier_size"]
        assert hist["count"] > 0 and hist["max"] >= hist["min"] > 0


class TestComponentCounters:
    def test_sampler_counts_samples(self, small_random_graph):
        uniforms = np.random.default_rng(0).random((10, 4))
        with obs.observe() as session:
            sample_neighbors(small_random_graph, "user", np.arange(10), uniforms)
        assert session.counter("sampler.samples_drawn") == 40
        assert session.counter("sampler.batches") == 1

    def test_embed_all_counts_vertices(self, small_random_graph):
        module = BipartiteGraphSAGE(6, 6, SageConfig(embedding_dim=8), rng=0)
        with obs.observe() as session:
            module.embed_all(small_random_graph)
        n = small_random_graph.num_users + small_random_graph.num_items
        # Layer-wise inference embeds every vertex once per step.
        assert session.counter("sage.vertices_embedded") == n * module.config.num_steps
        spans = [sp.name for sp, _ in session.tracer.all_spans()]
        assert "sage.embed_all" in spans

    def test_kmeans_counts_iterations(self, rng):
        points = rng.normal(size=(100, 4))
        with obs.observe() as session:
            kmeans(points, 5, rng=0)
        assert session.counter("kmeans.iterations") >= 1
        assert session.counter("kmeans.runs") == 1
        assert session.counter("kmeans.points_assigned") == 100

    def test_trainer_instrumentation_does_not_change_results(self, small_random_graph):
        def train():
            module = BipartiteGraphSAGE(6, 6, SageConfig(embedding_dim=8), rng=0)
            trainer = SageTrainer(
                module, small_random_graph, TrainConfig(epochs=2, batch_size=16), rng=0
            )
            return trainer.fit().epoch_losses

        plain = train()
        with obs.observe():
            traced = train()
        assert plain == traced
