"""Utility modules: RNG plumbing, configs, logging, tables."""

import logging

import numpy as np
import pytest

from repro.utils.config import HiGNNConfig, KMeansConfig, SageConfig, TrainConfig
from repro.utils.logging import get_logger
from repro.utils.rng import RngMixin, derive_rng, ensure_rng
from repro.utils.tables import format_table


class TestRng:
    def test_ensure_from_int(self):
        a = ensure_rng(42)
        b = ensure_rng(42)
        assert a.random() == b.random()

    def test_ensure_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_derive_independent_streams(self):
        parent = ensure_rng(0)
        child1 = derive_rng(parent, 1)
        parent2 = ensure_rng(0)
        child2 = derive_rng(parent2, 1)
        assert child1.random() == child2.random()

    def test_derive_keys_differ(self):
        parent = ensure_rng(0)
        a = derive_rng(parent, 1)
        parent = ensure_rng(0)
        b = derive_rng(parent, 2)
        assert a.random() != b.random()

    def test_ensure_matches_default_rng_stream(self):
        # The hot-path bench swapped np.random.default_rng(seed) for ensure_rng(seed);
        # the streams must stay bitwise identical or every recorded baseline
        # workload changes under the refactor.
        ours = ensure_rng(123)
        theirs = np.random.default_rng(123)
        assert np.array_equal(ours.normal(size=64), theirs.normal(size=64))
        assert np.array_equal(
            ours.integers(0, 1000, size=64), theirs.integers(0, 1000, size=64)
        )

    def test_mixin(self):
        class Thing(RngMixin):
            pass

        t = Thing(seed=3)
        first = t.rng.random()
        t.reseed(3)
        assert t.rng.random() == first


class TestConfigs:
    def test_sage_validation(self):
        with pytest.raises(ValueError):
            SageConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            SageConfig(num_steps=0)
        with pytest.raises(ValueError):
            SageConfig(num_steps=3, neighbor_samples=(5, 5))
        for fanouts in ((0, 3), (-2, 3), (2.5, 3), (True, 3)):
            with pytest.raises(ValueError, match="neighbor_samples"):
                SageConfig(neighbor_samples=fanouts)
        with pytest.raises(ValueError):
            SageConfig(aggregator="avg")
        with pytest.raises(ValueError):
            SageConfig(similarity_head="linear")

    def test_kmeans_validation(self):
        with pytest.raises(ValueError):
            KMeansConfig(algorithm="spectral")
        with pytest.raises(ValueError):
            KMeansConfig(max_iter=0)

    def test_train_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0)

    def test_hignn_validation(self):
        with pytest.raises(ValueError):
            HiGNNConfig(levels=0)
        with pytest.raises(ValueError):
            HiGNNConfig(cluster_decay=0.5)

    def test_clusters_at_level1_fraction(self):
        cfg = HiGNNConfig(initial_user_clusters=0.25)
        assert cfg.clusters_at(1, 100, "user") == 25

    def test_clusters_at_decay(self):
        cfg = HiGNNConfig(cluster_decay=5.0, initial_user_clusters=0.25)
        # Level 2 graph has ~25 vertices -> 25 / 5 = 5.
        assert cfg.clusters_at(2, 25, "user") == 5

    def test_clusters_at_absolute(self):
        cfg = HiGNNConfig(cluster_decay=4.0, initial_item_clusters=64)
        assert cfg.clusters_at(1, 1000, "item") == 64
        assert cfg.clusters_at(2, 64, "item") == 16

    def test_clusters_clamped(self):
        cfg = HiGNNConfig(min_clusters=2, initial_user_clusters=0.5)
        assert cfg.clusters_at(1, 3, "user") == 2
        assert cfg.clusters_at(3, 2, "user") == 2

    def test_clusters_bad_side(self):
        with pytest.raises(ValueError):
            HiGNNConfig().clusters_at(1, 10, "query")

    def test_to_dict_flattens(self):
        d = HiGNNConfig().to_dict()
        assert d["sage"]["embedding_dim"] == 32


class TestLogging:
    def test_namespacing(self):
        assert get_logger("core").name == "repro.core"
        assert get_logger("repro.core").name == "repro.core"
        assert get_logger("").name == "repro"

    def test_null_handler_attached(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = out.split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        assert set(lines[1]) <= {"-", "+"}

    def test_empty_rows_ok(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_raise(self):
        with pytest.raises(ValueError):
            format_table([], [])
