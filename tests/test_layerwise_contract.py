"""The layer-wise equivalence contract, stated and property-tested once.

One engine runs every full-graph embedding pass, and each chunk's
neighbour draw is addressed by ``(sample_seed, side, step, chunk)``
rather than by its position in a stream.  Two promises follow, at any
worker count:

1. ``embed_all(graph)``, ``embed_all(store)`` over any shard count and
   ``StreamingEmbedder(model, sample_seed=model.sample_seed)
   .full_embed(graph)`` give the same bytes.
2. After an edge delta, a vertex delta (new vertices with edges) or a
   vertex-only delta (new isolated vertices), a delta
   ``StreamingEmbedder.refresh`` gives the bytes of a full pass over the
   mutated graph.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.parallel import active_segment_names, shutdown_pools
from repro.shard import active_shard_dirs
from repro.streaming import IncrementalBipartiteGraph, StreamingEmbedder
from repro.utils.config import SageConfig

WORKERS = [1, pytest.param(2, marks=pytest.mark.parallel)]
FEATURE_DIM = 5


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_pools():
    yield
    shutdown_pools()


@st.composite
def worlds(draw):
    """A small random graph plus a model and a chunk size for it."""
    num_users = draw(st.integers(1, 40))
    num_items = draw(st.integers(1, 30))
    num_edges = draw(st.integers(0, min(150, num_users * num_items)))
    steps = draw(st.integers(1, 3))
    cfg = SageConfig(
        embedding_dim=draw(st.integers(1, 6)),
        num_steps=steps,
        neighbor_samples=tuple(draw(st.integers(1, 5)) for _ in range(steps)),
        aggregator=draw(st.sampled_from(["mean", "sum", "max", "weighted_mean"])),
    )
    seed = draw(st.integers(0, 2**16))
    graph = random_bipartite(
        num_users, num_items, num_edges, feature_dim=FEATURE_DIM, rng=seed
    )
    model = BipartiteGraphSAGE(FEATURE_DIM, FEATURE_DIM, cfg, rng=seed)
    return graph, model, draw(st.integers(1, 24))


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("workers", WORKERS)
@settings(max_examples=25, deadline=None)
@given(world=worlds(), num_shards=st.sampled_from([1, 4, 17]))
def test_dense_sharded_and_streaming_passes_give_the_same_bytes(
    workers, world, num_shards
):
    graph, model, batch_size = world
    dense = model.embed_all(graph, batch_size=batch_size, workers=workers)
    streamed = StreamingEmbedder(
        model, sample_seed=model.sample_seed, batch_size=batch_size
    ).full_embed(graph, workers=workers)
    _assert_same_bytes(streamed, dense)
    with tempfile.TemporaryDirectory() as tmp:
        with graph.to_sharded(Path(tmp) / "s", num_shards=num_shards) as store:
            sharded = model.embed_all(store, batch_size=batch_size, workers=workers)
            _assert_same_bytes(sharded, dense)
            del sharded
    assert active_segment_names() == set()
    assert active_shard_dirs() == set()


def _apply_delta(inc, kind, rng):
    """Grow ``inc`` by one edge, vertex or vertex-only delta."""
    if kind in ("vertices", "vertices_only"):
        n_users, n_items = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        users = inc.add_users(n_users, features=rng.normal(size=(n_users, FEATURE_DIM)))
        items = inc.add_items(n_items, features=rng.normal(size=(n_items, FEATURE_DIM)))
        if kind == "vertices_only":
            return
        # Each new user links to a new item or an existing one.
        item_pool = np.concatenate([items, rng.integers(0, inc.num_items, 2)])
        inc.add_edges(np.column_stack([users, rng.choice(item_pool, n_users)]))
        return
    count = int(rng.integers(1, 6))
    inc.add_edges(
        np.column_stack(
            [rng.integers(0, inc.num_users, count), rng.integers(0, inc.num_items, count)]
        )
    )


@pytest.mark.parametrize("workers", WORKERS)
@settings(max_examples=25, deadline=None)
@given(
    world=worlds(),
    kinds=st.lists(
        st.sampled_from(["edges", "vertices", "vertices_only"]), min_size=1, max_size=3
    ),
    delta_seed=st.integers(0, 2**16),
)
def test_delta_refresh_equals_a_full_pass(workers, world, kinds, delta_seed):
    graph, model, batch_size = world
    rng = np.random.default_rng(delta_seed)
    embedder = StreamingEmbedder(
        model, sample_seed=model.sample_seed, batch_size=batch_size, degrade_threshold=1.0
    )
    embedder.full_embed(graph, workers=workers)
    inc = IncrementalBipartiteGraph(graph)
    for kind in kinds:
        _apply_delta(inc, kind, rng)
        embedder.refresh(inc, workers=workers)
        assert embedder.last_stats.mode == "delta"
    _assert_same_bytes(
        embedder.embeddings, model.embed_all(inc.graph, batch_size=batch_size)
    )
    assert active_segment_names() == set()
