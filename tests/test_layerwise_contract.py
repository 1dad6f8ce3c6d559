"""The layer-wise equivalence contract, stated and property-tested once.

One engine runs every full-graph embedding pass, and each output row is
a pure function of its vertex: the vertex's neighbour draw is addressed
by ``(sample_seed, side, step, vertex, slot)``, and every matmul runs
whole tiles of one row count.  Tasks of ``batch_size`` rows are only
scheduling.  Three promises follow:

1. ``embed_all(graph)`` at any ``batch_size``, ``embed_all(store)`` over
   the graph's out-of-core store at any worker count, and
   ``StreamingEmbedder(model, sample_seed=model.sample_seed)
   .full_embed(graph)`` give the same bytes.
2. After an edge delta, a re-added-edge delta (edges the graph already
   has), a vertex delta (new vertices with edges) or a vertex-only delta
   (new isolated vertices), a delta ``StreamingEmbedder.refresh`` gives
   the bytes of a full pass over the mutated graph's store at any worker
   count.  That graph is built by the constructor
   (``tests.oracles.reference_fold``), not by the incremental fold the
   refresh reads, so a fold bug cannot pass on both sides.
3. The forward we train is the forward we serve: under the serving key,
   the training block ``embed_block(graph, users=[u], items=[i])`` gives
   ``embed_all``'s rows for ``u`` and ``i``.

Only the store pass fans out over the pool's worker threads, so
``WORKERS`` applies to ``embed_all(store, workers=...)`` alone.

The examples pin output widths whose BLAS kernels round a row
differently with the number of rows in its call (``d % 8`` in 1..4 with
16 or more inputs), so a kernel that lets a row's bytes depend on its
call's shape fails every run.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.parallel import shutdown_pools
from repro.shard import active_shard_dirs
from repro.streaming import IncrementalBipartiteGraph, StreamingEmbedder
from repro.utils.config import SageConfig
from tests.oracles import reference_fold

WORKERS = [1, pytest.param(2, marks=pytest.mark.parallel)]
FEATURE_DIM = 16


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_pools():
    yield
    shutdown_pools()


def _world(num_users, num_items, num_edges, dim, fanouts, aggregator, seed, batch_size):
    """``(graph, model, batch_size)`` for one random graph."""
    cfg = SageConfig(
        embedding_dim=dim,
        num_steps=len(fanouts),
        neighbor_samples=fanouts,
        aggregator=aggregator,
    )
    graph = random_bipartite(
        num_users, num_items, num_edges, feature_dim=FEATURE_DIM, rng=seed
    )
    return graph, BipartiteGraphSAGE(FEATURE_DIM, FEATURE_DIM, cfg, rng=seed), batch_size


@st.composite
def worlds(draw):
    """A small random graph plus a model and a task size for it."""
    num_users = draw(st.integers(1, 40))
    num_items = draw(st.integers(1, 30))
    num_edges = draw(st.integers(0, min(150, num_users * num_items)))
    steps = draw(st.integers(1, 3))
    return _world(
        num_users,
        num_items,
        num_edges,
        draw(st.integers(1, 20)),
        tuple(draw(st.integers(1, 5)) for _ in range(steps)),
        draw(st.sampled_from(["mean", "sum", "max"])),
        draw(st.integers(0, 2**16)),
        draw(st.integers(1, 24)),
    )


# BLAS tail widths d = 3, 9 and 12, with 16 + d inputs to W at step 1.
TAIL_WORLDS = [
    _world(40, 30, 150, 3, (4, 3), "mean", 0, 7),
    _world(37, 29, 120, 9, (5, 2, 3), "max", 1, 16),
    _world(25, 40, 100, 12, (3,), "sum", 2, 5),
]
# The fixed-seed refresh examples: a 200 x 150 world in 32-row tasks.
REFRESH_WORLD = _world(200, 150, 800, 8, (4, 3), "mean", 0, 32)


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("workers", WORKERS)
@settings(max_examples=25, deadline=None)
@given(world=worlds(), other_batch_size=st.integers(1, 64))
@example(world=TAIL_WORLDS[0], other_batch_size=64)
@example(world=TAIL_WORLDS[1], other_batch_size=3)
@example(world=TAIL_WORLDS[2], other_batch_size=40)
def test_dense_sharded_and_streaming_passes_give_the_same_bytes(
    workers, world, other_batch_size
):
    graph, model, batch_size = world
    dense = model.embed_all(graph, batch_size=batch_size)
    _assert_same_bytes(model.embed_all(graph, batch_size=other_batch_size), dense)
    streamed = StreamingEmbedder(
        model, sample_seed=model.sample_seed, batch_size=batch_size
    ).full_embed(graph)
    _assert_same_bytes(streamed, dense)
    with tempfile.TemporaryDirectory() as tmp:
        with graph.to_sharded(Path(tmp) / "s") as store:
            sharded = model.embed_all(store, batch_size=batch_size, workers=workers)
            _assert_same_bytes(sharded, dense)
            del sharded
    assert active_shard_dirs() == set()


def _apply_delta(inc, kind, rng):
    """Grow ``inc`` by one edge, re-added-edge, vertex or vertex-only delta."""
    if kind == "re_added":
        edges = inc.graph.edges
        if len(edges):
            inc.add_edges(edges[rng.integers(0, len(edges), int(rng.integers(1, 4)))])
        return
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
        st.sampled_from(["edges", "re_added", "vertices", "vertices_only"]),
        min_size=1,
        max_size=3,
    ),
    delta_seed=st.integers(0, 2**16),
)
@example(world=TAIL_WORLDS[0], kinds=["edges", "vertices"], delta_seed=0)
@example(world=TAIL_WORLDS[1], kinds=["re_added", "vertices_only"], delta_seed=1)
@example(world=TAIL_WORLDS[2], kinds=["vertices", "edges"], delta_seed=2)
@example(world=REFRESH_WORLD, kinds=["edges"], delta_seed=1)
# Three new users linked to both new items and to old item 33.
@example(world=REFRESH_WORLD, kinds=["vertices"], delta_seed=124)
@example(world=REFRESH_WORLD, kinds=["edges", "edges", "edges"], delta_seed=3)
def test_delta_refresh_equals_a_full_pass(workers, world, kinds, delta_seed):
    graph, model, batch_size = world
    rng = np.random.default_rng(delta_seed)
    embedder = StreamingEmbedder(
        model, sample_seed=model.sample_seed, batch_size=batch_size, degrade_threshold=1.0
    )
    embedder.full_embed(graph)
    inc = IncrementalBipartiteGraph(graph)
    # The full pass reads the constructor-built graph, not the fold under test.
    reference = graph
    for kind in kinds:
        _apply_delta(inc, kind, rng)
        reference = reference_fold(reference, inc)
        embedder.refresh(inc)
        assert embedder.last_stats.mode == "delta"
    with tempfile.TemporaryDirectory() as tmp:
        with reference.to_sharded(Path(tmp) / "s") as store:
            full = model.embed_all(store, batch_size=batch_size, workers=workers)
            _assert_same_bytes(embedder.embeddings, full)
            del full


@settings(max_examples=40, deadline=None)
@given(world=worlds(), pick_seed=st.integers(0, 2**16))
@example(world=TAIL_WORLDS[0], pick_seed=0)
@example(world=TAIL_WORLDS[1], pick_seed=1)
@example(world=TAIL_WORLDS[2], pick_seed=2)
def test_training_block_rows_equal_embed_all_rows(world, pick_seed):
    graph, model, _ = world
    rng = np.random.default_rng(pick_seed)
    users = rng.integers(0, graph.num_users, int(rng.integers(1, 8)))
    items = rng.integers(0, graph.num_items, int(rng.integers(1, 8)))
    (z_users,), (z_items,) = model.embed_block(graph, users=[users], items=[items])
    all_users, all_items = model.embed_all(graph)
    _assert_same_bytes([z_users.data, z_items.data], [all_users[users], all_items[items]])
