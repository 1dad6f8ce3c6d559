"""Out-of-core embed_all over a store: bitwise parity with dense,
argument checks, and results that outlive later passes.  The layer-wise
contract (``tests/test_layerwise_contract.py``) states the parity over
random graphs as well."""

import numpy as np
import pytest

from repro.core.sage import BipartiteGraphSAGE
from repro.data import StreamedWorldConfig, stream_world_to_shards
from repro.graph.generators import random_bipartite
from repro.utils.config import SageConfig


def _model(seed=3):
    return BipartiteGraphSAGE(
        5, 5, SageConfig(embedding_dim=8, neighbor_samples=(4, 2)), rng=seed
    )


def _world(seed=0):
    return random_bipartite(150, 110, 900, feature_dim=5, rng=seed)


@pytest.mark.parametrize("num_shards", [1, 4, 17])
def test_bitwise_equal_to_dense(tmp_path, num_shards):
    # A streamed store (num_shards item ranges at build) against its graph.
    cfg = StreamedWorldConfig(
        num_users=150, num_items=110, num_clusters=4, feature_dim=5, chunk_users=40
    )
    with stream_world_to_shards(tmp_path / "s", cfg, num_shards=num_shards, seed=0) as store:
        graph = store.to_graph()
        zu_d, zi_d = _model().embed_all(graph, batch_size=64, mode="layerwise")
        zu_s, zi_s = _model().embed_all(store, batch_size=64, workers=1)
        assert np.array_equal(zu_d, np.asarray(zu_s))
        assert np.array_equal(zi_d, np.asarray(zi_s))


@pytest.mark.parallel
def test_bitwise_equal_across_worker_counts(tmp_path):
    graph = _world(seed=7)
    with graph.to_sharded(tmp_path / "s") as store:
        zu_d, zi_d = _model().embed_all(graph, batch_size=64, mode="layerwise")
        zu_s, zi_s = _model().embed_all(store, batch_size=64, workers=4)
        assert np.array_equal(zu_d, np.asarray(zu_s))
        assert np.array_equal(zi_d, np.asarray(zi_s))


def test_batch_size_does_not_change_result(tmp_path):
    # Chunk boundaries feed the RNG order, so the *same* batch size must
    # match dense (tested above) while a different one changes draws —
    # guard that both paths shift together.
    graph = _world(seed=5)
    with graph.to_sharded(tmp_path / "s") as store:
        zu_d, _ = _model().embed_all(graph, batch_size=32, mode="layerwise")
        zu_s, _ = _model().embed_all(store, batch_size=32, workers=1)
        assert np.array_equal(zu_d, np.asarray(zu_s))


def test_recursive_mode_rejected(tmp_path):
    graph = _world(seed=1)
    with graph.to_sharded(tmp_path / "s") as store:
        with pytest.raises(ValueError, match="layerwise"):
            _model().embed_all(store, mode="recursive")


def test_featureless_store_rejected(tmp_path):
    graph = random_bipartite(20, 15, 60, rng=0)  # no features
    with graph.to_sharded(tmp_path / "s") as store:
        with pytest.raises(ValueError):
            _model().embed_all(store)


def test_later_pass_leaves_earlier_result_intact(tmp_path):
    # Both passes write the same double-buffered step files; the second
    # must replace them, not rewrite the pages the first result maps.
    graph = _world(seed=2)
    with graph.to_sharded(tmp_path / "s") as store:
        first = _model(seed=1).embed_all(store, batch_size=64)
        second = _model(seed=2).embed_all(store, batch_size=64)
        want = _model(seed=1).embed_all(graph, batch_size=64)
        for got, expected, other in zip(first, want, second):
            assert np.array_equal(np.asarray(got), expected)
            assert not np.array_equal(np.asarray(got), np.asarray(other))
        del first, second


def test_cli_dense_mode_rejects_workers(capsys):
    # Only the store pass fans out; the dense side of `repro shard` runs
    # in process, so asking it for workers is a usage error.
    from repro.cli import main

    code = main(["shard", "--mode", "dense", "--workers", "2", "--users", "30", "--items", "20"])
    assert code == 2
    assert "--mode sharded" in capsys.readouterr().err
