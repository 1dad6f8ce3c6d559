"""One compute dtype: float32 parameters, float32 outputs.

``repro.nn.init`` creates float32 parameters and every model casts its
inputs (float64 features, design matrices) to its parameters' dtype
where they enter, so every embedding and probability handed out is
float32: dense, sharded and streaming ``embed_all``, a delta refresh,
the HiGNN level embeddings and ``predict_proba``.  The fused MLP node
and the split Eq. 5 head output their parameters' dtype, float64 too
(``tests.float64``), which is what the gradient checks run in.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.hignn import HiGNN
from repro.core.loss import EdgeSimilarityHead
from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.nn.layers import MLP
from repro.nn.tensor import Tensor
from repro.prediction.cvr_model import CVRTrainConfig, train_cvr_model
from repro.shard import active_shard_dirs
from repro.streaming import IncrementalBipartiteGraph, StreamingEmbedder
from repro.utils.config import HiGNNConfig, SageConfig, TrainConfig
from tests.float64 import float64

F32 = np.dtype(np.float32)


def _world():
    graph = random_bipartite(40, 30, 150, feature_dim=6, rng=0)
    model = BipartiteGraphSAGE(6, 6, SageConfig(embedding_dim=8, neighbor_samples=(4, 3)), rng=0)
    return graph, model


def _dtypes(arrays):
    return [np.asarray(a).dtype for a in arrays]


def test_features_are_float64_and_parameters_float32():
    graph, model = _world()
    assert graph.user_features.dtype == np.float64
    assert {p.data.dtype for p in model.parameters()} == {F32}
    assert model.dtype == F32


def test_dense_sharded_and_streaming_embeddings_are_float32():
    graph, model = _world()
    assert _dtypes(model.embed_all(graph)) == [F32, F32]
    embedder = StreamingEmbedder(model, sample_seed=model.sample_seed, batch_size=16)
    assert _dtypes(embedder.full_embed(graph)) == [F32, F32]
    inc = IncrementalBipartiteGraph(graph)
    inc.add_edges(np.array([[0, 1], [3, 2]]))
    assert _dtypes(embedder.refresh(inc)) == [F32, F32]
    assert embedder.last_stats.mode == "delta"
    with tempfile.TemporaryDirectory() as tmp:
        with graph.to_sharded(Path(tmp) / "s") as store:
            sharded = model.embed_all(store, batch_size=16)
            assert _dtypes(sharded) == [F32, F32]
            step_files = sorted(p.name for p in (Path(tmp) / "s" / "embed").iterdir())
            nbytes = (Path(tmp) / "s" / "embed" / step_files[0]).stat().st_size
            assert nbytes == graph.num_items * 8 * F32.itemsize
            del sharded
    assert active_shard_dirs() == set()


def test_training_block_is_float32():
    graph, model = _world()
    users, items = model.embed_block(graph, users=[np.arange(5)], items=[np.arange(4)], key=(0, 1))
    assert _dtypes([users[0].data, items[0].data]) == [F32, F32]


def test_hignn_level_embeddings_are_float32():
    graph = random_bipartite(60, 50, 300, feature_dim=6, rng=1)
    config = HiGNNConfig(
        levels=2,
        sage=SageConfig(embedding_dim=8, neighbor_samples=(4, 3)),
        train=TrainConfig(epochs=1, batch_size=128),
    )
    hierarchy = HiGNN(config, seed=0).fit(graph)
    for record in hierarchy.levels:
        assert _dtypes([record.user_embeddings, record.item_embeddings]) == [F32, F32]


def test_predict_proba_is_float32():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(64, 5))
    labels = (rng.random(64) < 0.3).astype(float)
    model, _ = train_cvr_model(features, labels, CVRTrainConfig(hidden=(8,), epochs=1), rng=0)
    assert model.predict_proba(features).dtype == F32


@pytest.mark.parametrize("cast", [lambda m: m, float64], ids=["float32", "float64"])
def test_mlp_node_and_split_head_output_their_parameters_dtype(cast):
    mlp = cast(MLP(5, (4,), 1, rng=0))
    x = Tensor(np.ones((3, 5), dtype=mlp.dtype), requires_grad=True)
    out = mlp(x)
    out.sum().backward()
    assert out.data.dtype == x.grad.dtype == mlp.dtype

    head = cast(EdgeSimilarityHead(4, mode="hybrid", rng=0))
    z = [Tensor(np.ones((n, 4), dtype=head.dtype), requires_grad=True) for n in (2, 2, 4, 2)]
    logits = head.score(z[0], z[1], np.ones(2), z[2], z[3], gamma=1.0)
    logits.sum().backward()
    assert logits.data.dtype == head.dtype
    assert {t.grad.dtype for t in z} == {head.dtype}
    assert {p.grad.dtype for p in head.parameters()} == {head.dtype}
