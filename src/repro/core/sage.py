"""Bipartite GraphSAGE (Section III-B, Eqs. 1–4).

Users aggregate embeddings from sampled item neighbours and vice versa.
Each side owns its aggregators, per-step weight matrices ``W_u^p`` /
``W_i^p`` and cross-space transformation matrices ``M_i^u`` / ``M_u^i``
(Eqs. 1–2).  The query–item variant of Section V-B shares one set of
matrices across both sides (Eqs. 8–11); enable it with
``SageConfig.shared_space=True`` (requires equal feature dimensions).

Two hot-path layouts keep this tractable at scale (Section III-D;
cf. Cascade-BGNN's redundancy elimination):

* **Block mini-batch step** — :meth:`embed_block` is handed every id a
  training batch needs on each side (positives and negatives together)
  and plans the standard GraphSAGE "blocks" top-down: the deduplicated
  frontier of each (side, step) from step ``P`` down to the raw features
  at step 0, with one neighbour draw per (side, step) at fan-outs
  ``K_1, ..., K_P`` (the K's of the paper's complexity analysis) — so
  ``2·P`` draws per batch.  It then computes each step's user and item
  matrices once, bottom-up, and gathers the requested rows.  Popular
  vertices appear many times across a batch's receptive fields; each is
  embedded once per step, which cuts forward *and* backward FLOPs
  superlinearly with graph skew.  The per-occurrence recursion
  :meth:`_embed_naive` is retained as the reference for equivalence
  tests and the hot-path benchmark.
* **Layer-wise full-graph inference** — :meth:`embed_all` computes the
  step-``p`` matrices for *all* vertices from the cached step-``p-1``
  matrices, one pass per step, instead of re-expanding the whole
  receptive field per batch.  The block step remains the training path
  (it builds the autograd graph).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.sampling import NeighborSampler
from repro.nn.layers import Activation, Linear, Module
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.obs.monitor import heartbeat
from repro.nn.tensor import Tensor, concat, no_grad, where
from repro.parallel import as_ndarray, get_pool, shared_arrays
from repro.utils.config import SageConfig
from repro.utils.rng import derive_rng, ensure_rng

__all__ = ["BipartiteGraphSAGE"]


# ---------------------------------------------------------------------------
# Layer-wise chunk kernel (plain numpy, runs in-process or in workers)
# ---------------------------------------------------------------------------
# These replicate the Tensor forward math operation-for-operation (same
# numpy expressions, same order) so chunk outputs are bitwise identical
# to the autograd path — and therefore identical for every worker count.

_NP_ACTIVATIONS = {
    "relu": lambda x: x * (x > 0),
    "leaky_relu": lambda x: np.where(x > 0, x, 0.01 * x),
    "tanh": np.tanh,
    "sigmoid": lambda x: np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, -500, None))),
        np.exp(np.clip(x, None, 500)) / (1.0 + np.exp(np.clip(x, None, 500))),
    ),
    "identity": lambda x: x,
}


def _np_aggregate(stacked: np.ndarray, valid: np.ndarray, agg: str) -> np.ndarray:
    """Numpy mirror of :meth:`BipartiteGraphSAGE._aggregate`."""
    all_valid = valid.all()
    if agg == "max":
        if all_valid:
            return stacked.max(axis=1)
        masked = np.where(valid[:, :, None], stacked, np.full(stacked.shape, -1e30))
        any_valid = valid.any(axis=1)[:, None].astype(float)
        return masked.max(axis=1) * any_valid
    if agg not in ("mean", "weighted_mean", "sum"):
        raise ValueError(f"unknown aggregator {agg!r}")
    masked = stacked if all_valid else stacked * valid.astype(float)[:, :, None]
    summed = masked.sum(axis=1)
    if agg == "sum":
        return summed
    counts = np.maximum(valid.sum(axis=1, keepdims=True), 1).astype(float)
    return summed * (1.0 / counts)


_SIDES = ("user", "item")


def _frontier(id_arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted unique ids across ``id_arrays``; -1 (padding) maps to 0.

    Mapping padding onto a real vertex keeps every lookup in range; the
    padded rows are masked out by their consumers.
    """
    ids = np.concatenate([np.empty(0, dtype=np.int64), *(np.ravel(a) for a in id_arrays)])
    return np.unique(np.where(ids >= 0, ids, 0))


def _rows(h: Tensor, frontier: np.ndarray, ids: np.ndarray) -> Tensor:
    """Rows of ``h`` (indexed by the sorted ``frontier``) for ``ids``.

    ``ids`` may be any shape; rows come back flat in its order, with -1
    ids reading vertex 0's row (callers mask them).
    """
    flat = ids.reshape(-1)
    return h.gather_rows(np.searchsorted(frontier, np.where(flat >= 0, flat, 0)))


def _zero_padding(rows: Tensor, ids: np.ndarray) -> Tensor:
    """Zero the rows of -1 ids (skipped when there are none)."""
    mask = ids >= 0
    return rows if mask.all() else rows * mask[:, None].astype(float)


def _sharded_shard_task(task: tuple, context: tuple) -> int:
    """Run one shard's chunk list of a sharded layer-wise pass.

    ``task`` is ``(shard_id, chunks)`` with every chunk pre-sampled in
    the parent; ``context`` names the previous-step matrices and the
    output buffer as ``(path, shape)`` memmap specs plus the step's
    weights.  Each chunk writes a disjoint row range of the output, so
    results are independent of which worker runs what — and each chunk
    is computed by the exact dense-path kernel, so the bytes written are
    identical to the in-memory result.
    """
    from repro.obs.metrics import counter_add as _counter_add
    from repro.obs.monitor import heartbeat as _heartbeat
    from repro.shard.storage import open_block

    shard_id, chunks = task
    own_spec, other_spec, out_spec, params = context
    own_prev = open_block(own_spec[0], np.float64, own_spec[1], mode="r")
    other_prev = open_block(other_spec[0], np.float64, other_spec[1], mode="r")
    out = open_block(out_spec[0], np.float64, out_spec[1], mode="r+")
    read = written = 0
    total_rows = sum(stop - start for start, stop, _neigh in chunks)
    done_rows = 0
    for start, stop, neigh in chunks:
        out[start:stop] = _layerwise_chunk((start, stop, neigh), (own_prev, other_prev, params))
        read += ((stop - start) * own_prev.shape[1] + neigh.size * other_prev.shape[1]) * 8
        written += (stop - start) * out.shape[1] * 8
        done_rows += stop - start
        _heartbeat(
            f"shard{shard_id:03d}.embed",
            done_rows,
            total_rows,
            frontier=int(neigh.size),
        )
    if isinstance(out, np.memmap):
        out.flush()
    _counter_add("shard.mmap_bytes_read", read)
    _counter_add("shard.mmap_bytes_written", written)
    return shard_id


def _layerwise_chunk(task: tuple, context: tuple) -> np.ndarray:
    """Embed one pre-sampled vertex chunk at one step (Eqs. 1–4).

    ``task`` is ``(start, stop, neigh)`` with neighbours already sampled
    in the parent (fixed order, so the sampling stream is untouched by
    parallelism).  ``context`` carries the previous-step matrices —
    possibly as shared-memory handles — plus the step's weights.

    An optional fourth task entry ``rows`` (chunk-local row indices)
    gathers and aggregates only those rows and returns only their
    embeddings.  The aggregated rows are scattered into a zero matrix of
    the full chunk shape first, so both matmuls see the operand shapes
    and row positions of the full-chunk call: the returned rows equal
    the same rows of the full-chunk result bitwise, whatever the BLAS.
    """
    start, stop, neigh, *selection = task
    rows = selection[0] if selection else None
    own_handle, other_handle, params = context
    own_prev = as_ndarray(own_handle)
    other_prev = as_ndarray(other_handle)
    if rows is not None:
        neigh = neigh[rows]
    valid = neigh >= 0
    stacked = other_prev[np.where(valid, neigh, 0)]
    aggregated = _np_aggregate(stacked, valid, params["aggregator"])
    if rows is not None:
        scattered = np.zeros((stop - start, aggregated.shape[1]))
        scattered[rows] = aggregated
        aggregated = scattered
    transformed = aggregated @ params["m_w"]  # Eq. 1 / Eq. 2 (M has no bias)
    if params["m_b"] is not None:
        transformed = transformed + params["m_b"]
    combined = np.concatenate([own_prev[start:stop], transformed], axis=-1)
    z = combined @ params["w_w"]
    if rows is not None:
        z = z[rows]
    if params["w_b"] is not None:
        z = z + params["w_b"]
    return _NP_ACTIVATIONS[params["activation"]](z)  # Eq. 3 / Eq. 4


class BipartiteGraphSAGE(Module):
    """The bipartite GraphSAGE module BG(G, X_u, X_i) of the paper.

    Parameters
    ----------
    user_dim, item_dim:
        Raw feature dimensions d_u and d_i.
    config:
        Hyper-parameters; see :class:`repro.utils.config.SageConfig`.
    rng:
        Seed / generator for weight init and neighbour sampling.
    """

    def __init__(
        self,
        user_dim: int,
        item_dim: int,
        config: SageConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = config or SageConfig()
        cfg = self.config
        if cfg.shared_space and user_dim != item_dim:
            raise ValueError(
                "shared_space requires equal user/item feature dimensions "
                f"(got {user_dim} and {item_dim})"
            )
        rng = ensure_rng(rng)
        self.user_dim = user_dim
        self.item_dim = item_dim
        d = cfg.embedding_dim
        self.activation = Activation(cfg.activation)

        # Per-step dimensions: step 1 consumes raw features, later steps
        # consume d-dimensional embeddings from the previous step.
        user_dims = [user_dim] + [d] * cfg.num_steps
        item_dims = [item_dim] + [d] * cfg.num_steps

        self.user_transform: list[Linear] = []  # M_i^u per step (item -> user)
        self.item_transform: list[Linear] = []  # M_u^i per step (user -> item)
        self.user_weight: list[Linear] = []  # W_u^p
        self.item_weight: list[Linear] = []  # W_i^p
        for p in range(1, cfg.num_steps + 1):
            m_iu = Linear(item_dims[p - 1], d, bias=False, rng=rng)
            w_u = Linear(user_dims[p - 1] + d, d, rng=rng)
            if cfg.shared_space:
                m_ui, w_i = m_iu, w_u  # Eqs. 8-11: shared M^p and W^p
            else:
                m_ui = Linear(user_dims[p - 1], d, bias=False, rng=rng)
                w_i = Linear(item_dims[p - 1] + d, d, rng=rng)
            self.user_transform.append(m_iu)
            self.item_transform.append(m_ui)
            self.user_weight.append(w_u)
            self.item_weight.append(w_i)
        self._sample_rng = derive_rng(rng, 7)
        # One NeighborSampler per graph, built lazily on first use —
        # the recursion previously rebuilt a sampler at every step.
        self._sampler_cache: tuple[BipartiteGraph, NeighborSampler] | None = None
        self._shard_sampler_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Embedding computation
    # ------------------------------------------------------------------
    def embed_users(self, graph: BipartiteGraph, user_ids: np.ndarray) -> Tensor:
        """Final user embeddings z_u for ``user_ids`` (builds autograd graph)."""
        return self.embed_block(graph, users=[user_ids])[0][0]

    def embed_items(self, graph: BipartiteGraph, item_ids: np.ndarray) -> Tensor:
        """Final item embeddings z_i for ``item_ids`` (builds autograd graph)."""
        return self.embed_block(graph, items=[item_ids])[1][0]

    def embed_block(
        self,
        graph: BipartiteGraph,
        users: Sequence[np.ndarray] = (),
        items: Sequence[np.ndarray] = (),
    ) -> tuple[list[Tensor], list[Tensor]]:
        """Final embeddings for several id requests per side, as one block.

        ``users`` / ``items`` list every id array a mini-batch needs on
        that side (e.g. its positives and its negatives); one
        :class:`Tensor` per request comes back, in order, and -1 ids
        give zero rows.  The requests share one deduplicated frontier per
        (side, step), one neighbour draw per (side, step) and one
        step-``p`` matrix per side, so each vertex is embedded once per
        step however many requests reach it.
        """
        cfg = self.config
        steps = cfg.num_steps
        requests = {
            "user": [np.asarray(ids, dtype=np.int64) for ids in users],
            "item": [np.asarray(ids, dtype=np.int64) for ids in items],
        }
        # Top-down plan: frontiers[p] holds the step-p vertex ids of each
        # side; draws[p] the neighbours sampled for them (step p >= 1).
        frontiers = {steps: {side: _frontier(reqs) for side, reqs in requests.items()}}
        draws = {}
        sampler = self._sampler(graph)
        for step in range(steps, 0, -1):
            fanout = cfg.neighbor_samples[steps - step]
            top = frontiers[step]
            for side in _SIDES:
                counter_add("sage.vertices_embedded", len(top[side]))
                if len(top[side]):
                    observe("sage.frontier_size", len(top[side]))
            draws[step] = {
                "user": sampler.sample_items_for_users(top["user"], fanout),
                "item": sampler.sample_users_for_items(top["item"], fanout),
            }
            frontiers[step - 1] = {
                "user": _frontier([top["user"], draws[step]["item"]]),
                "item": _frontier([top["item"], draws[step]["user"]]),
            }

        # Bottom-up: every step's matrices once, from the step below.
        h = {
            side: Tensor(self._features(graph, side)[frontiers[0][side]])
            for side in _SIDES
        }
        for step in range(1, steps + 1):
            below, top = frontiers[step - 1], frontiers[step]
            h = {
                side: self._layer(
                    step,
                    side,
                    _rows(h[side], below[side], top[side]),
                    _rows(h[other], below[other], draws[step][side]),
                    draws[step][side] >= 0,
                )
                for side, other in (("user", "item"), ("item", "user"))
            }
        top = frontiers[steps]
        return tuple(
            [_zero_padding(_rows(h[side], top[side], ids), ids) for ids in requests[side]]
            for side in _SIDES
        )

    def embed_all(
        self,
        graph: BipartiteGraph,
        batch_size: int = 2048,
        mode: str = "layerwise",
        workers: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode embeddings (Z_u, Z_i) for every vertex.

        ``mode="layerwise"`` (default) computes each step for the whole
        graph from the cached previous-step matrices — O(P·N·K·d) work
        instead of the recursive path's O(N·K_1·...·K_P·d).  Called at
        every HiGNN level (Algorithm 1), so it dominates hierarchy-build
        time.  ``mode="recursive"`` keeps the per-batch recursive
        expansion as a reference implementation.

        ``workers`` fans the layer-wise chunk loop out over a process
        pool (default: the globally configured count, usually 1 → runs
        in-process).  Chunk boundaries, sampling order and reduction
        order are independent of the worker count, so the result is
        bitwise identical for any ``workers`` given the same seed.

        ``mode="streaming"`` runs the same layer-wise computation
        through the cached :class:`~repro.streaming.StreamingEmbedder`,
        whose content-addressed per-chunk sampling makes the result the
        exact reference for :meth:`refresh` (delta refresh after a
        mutation is bitwise-identical to this mode on the mutated
        graph).
        """
        if mode == "streaming":
            return self.streaming_embedder().full_embed(graph, workers=workers)
        if mode not in {"layerwise", "recursive"}:
            raise ValueError(f"unknown embed_all mode {mode!r}")
        if not isinstance(graph, BipartiteGraph):
            # A ShardedCSR store (duck-checked lazily so repro.core does
            # not import repro.shard unless sharding is actually used).
            from repro.shard.storage import ShardedCSR

            if isinstance(graph, ShardedCSR):
                if mode != "layerwise":
                    raise ValueError(
                        "sharded stores only support layerwise embed_all"
                    )
                return self.embed_all_sharded(
                    graph, batch_size=batch_size, workers=workers
                )
        self.eval()
        with span(
            "sage.embed_all",
            mode=mode,
            num_users=graph.num_users,
            num_items=graph.num_items,
        ), no_grad():
            if mode == "layerwise":
                users, items = self._embed_all_layerwise(
                    graph, batch_size, get_pool(workers)
                )
            else:
                users = np.concatenate(
                    [
                        self.embed_users(graph, np.arange(s, min(s + batch_size, graph.num_users))).data
                        for s in range(0, graph.num_users, batch_size)
                    ]
                )
                items = np.concatenate(
                    [
                        self.embed_items(graph, np.arange(s, min(s + batch_size, graph.num_items))).data
                        for s in range(0, graph.num_items, batch_size)
                    ]
                )
        self.train()
        return users, items

    def embed_all_sharded(
        self,
        store,
        batch_size: int = 2048,
        workers: int | None = None,
        work_dir=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Layer-wise inference over a ``ShardedCSR`` store, out-of-core.

        Step matrices live in memory-mapped files (double-buffered under
        ``work_dir``, default ``<store>/embed``); each pass samples every
        chunk in the parent in the dense path's global order (the
        fixed-order cross-shard frontier exchange), then fans the chunks
        out one :mod:`repro.parallel` task per shard.  Workers read the
        previous-step mmaps and write disjoint row ranges, so the result
        is bitwise identical to ``embed_all`` on the equivalent dense
        graph at any worker count.  Returns read-only memmaps
        ``(Z_u, Z_i)``.
        """
        self.eval()
        with span(
            "sage.embed_all",
            mode="sharded",
            num_users=store.num_users,
            num_items=store.num_items,
        ), no_grad():
            users, items = self._embed_all_sharded(
                store, batch_size, get_pool(workers), work_dir
            )
        self.train()
        return users, items

    # ------------------------------------------------------------------
    # Streaming refresh (delegates to repro.streaming, imported lazily)
    # ------------------------------------------------------------------
    def streaming_embedder(
        self,
        sample_seed: int = 0,
        batch_size: int = 2048,
        degrade_threshold: float = 0.25,
    ):
        """The cached :class:`~repro.streaming.StreamingEmbedder` for
        this model (rebuilt when the parameters change)."""
        from repro.streaming.refresh import StreamingEmbedder

        cached = getattr(self, "_streaming", None)
        if (
            cached is None
            or cached.sample_seed != int(sample_seed)
            or cached.batch_size != int(batch_size)
            or cached.degrade_threshold != float(degrade_threshold)
        ):
            cached = StreamingEmbedder(
                self,
                sample_seed=sample_seed,
                batch_size=batch_size,
                degrade_threshold=degrade_threshold,
            )
            self._streaming = cached
        return cached

    def refresh(
        self,
        graph,
        dirty_users: np.ndarray | None = None,
        dirty_items: np.ndarray | None = None,
        workers: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Delta-aware update of the ``mode="streaming"`` embeddings.

        After the graph gained edges/vertices, recomputes only the rows
        in the P-hop out-neighbourhood of the dirty vertices, each at its
        full-pass chunk position and operand shape — bitwise-identical to
        ``embed_all(mutated_graph, mode="streaming")`` at any worker
        count.  Accepts an
        :class:`~repro.streaming.IncrementalBipartiteGraph` (dirty
        frontier consumed and cleared) or a plain graph plus explicit
        dirty id arrays.  Stats land on
        ``self.streaming_embedder().last_stats``.
        """
        return self.streaming_embedder().refresh(
            graph, dirty_users, dirty_items, workers=workers
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _features(self, graph: BipartiteGraph, side: str) -> np.ndarray:
        feats = graph.user_features if side == "user" else graph.item_features
        if feats is None:
            raise ValueError(f"graph is missing {side} features")
        expected = self.user_dim if side == "user" else self.item_dim
        if feats.shape[1] != expected:
            raise ValueError(
                f"{side} features have dim {feats.shape[1]}, module expects {expected}"
            )
        return feats

    def _sampler(self, graph: BipartiteGraph) -> NeighborSampler:
        """The cached per-graph sampler (built once, reused everywhere)."""
        cached = self._sampler_cache
        if cached is None or cached[0] is not graph or cached[1].rng is not self._sample_rng:
            # Rebuilt when the graph changes *or* ``_sample_rng`` is
            # reassigned (tests freeze sampling by swapping the rng).
            self._sampler_cache = (graph, NeighborSampler(graph, rng=self._sample_rng))
            cached = self._sampler_cache
        return cached[1]

    def _step_modules(self, step: int, side: str) -> tuple[Linear, Linear]:
        """The (M, W) pair for ``step`` on ``side`` (Eqs. 1–4)."""
        if side == "user":
            return self.user_transform[step - 1], self.user_weight[step - 1]
        return self.item_transform[step - 1], self.item_weight[step - 1]

    def _layer(
        self,
        step: int,
        side: str,
        own_prev: Tensor,
        neigh_prev: Tensor,
        valid: np.ndarray,
    ) -> Tensor:
        """One step of Eqs. 1–4 from gathered step-``step - 1`` rows.

        ``own_prev`` holds the vertices' own rows (the CONCAT left
        operand); ``neigh_prev`` their sampled neighbours' rows, flat in
        ``valid``'s (n, K) order.
        """
        stacked = neigh_prev.reshape(valid.shape[0], valid.shape[1], neigh_prev.shape[1])
        aggregated = self._aggregate(stacked, valid)
        transform, weight = self._step_modules(step, side)
        transformed = transform(aggregated)  # Eq. 1 / Eq. 2
        combined = concat([own_prev, transformed], axis=-1)
        return self.activation(weight(combined))  # Eq. 3 / Eq. 4

    def _embed_naive(
        self, graph: BipartiteGraph, ids: np.ndarray, step: int, side: str
    ) -> Tensor:
        """Reference recursion: every frontier occurrence embedded anew."""
        cfg = self.config
        ids = np.asarray(ids)
        mask = ids >= 0
        safe = np.where(mask, ids, 0)

        if step == 0:
            base = self._features(graph, side)[safe].copy()
            base[~mask] = 0.0
            return Tensor(base)

        own_prev = self._embed_naive(graph, ids, step - 1, side)

        fanout = cfg.neighbor_samples[cfg.num_steps - step]
        sampler = self._sampler(graph)
        if side == "user":
            neigh = sampler.sample_items_for_users(safe, fanout)
        else:
            neigh = sampler.sample_users_for_items(safe, fanout)
        neigh[~mask] = -1
        other = "item" if side == "user" else "user"
        flat = self._embed_naive(graph, neigh.reshape(-1), step - 1, other)
        return _zero_padding(self._layer(step, side, own_prev, flat, neigh >= 0), ids)

    # ------------------------------------------------------------------
    # Layer-wise full-graph inference
    # ------------------------------------------------------------------
    def _embed_all_layerwise(
        self, graph: BipartiteGraph, batch_size: int, pool=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One pass per step over the whole graph (inference only).

        At step ``p`` every vertex aggregates ``K`` sampled neighbours
        from the cached step-``p-1`` matrix of the opposite side, so the
        receptive field is never re-expanded.  Equivalent to the
        recursive path when sampling is a pure function of the vertex
        (e.g. exhaustive fan-outs); distributionally equivalent under
        sampling with replacement.
        """
        h_user = self._features(graph, "user")
        h_item = self._features(graph, "item")
        cfg = self.config
        for step in range(1, cfg.num_steps + 1):
            fanout = cfg.neighbor_samples[cfg.num_steps - step]
            new_user = self._layerwise_pass(
                graph, h_user, h_item, step, "user", fanout, batch_size, pool
            )
            new_item = self._layerwise_pass(
                graph, h_item, h_user, step, "item", fanout, batch_size, pool
            )
            h_user, h_item = new_user, new_item
        return h_user, h_item

    def _layerwise_pass(
        self,
        graph: BipartiteGraph,
        own_prev: np.ndarray,
        other_prev: np.ndarray,
        step: int,
        side: str,
        fanout: int,
        batch_size: int,
        pool=None,
    ) -> np.ndarray:
        """Step-``step`` embeddings for every vertex on ``side``.

        Neighbours for every chunk are sampled up front in the parent —
        in the same fixed order the serial loop used, so the sampling
        RNG stream is untouched by parallelism — then the chunks are
        mapped over ``pool`` (in-process when ``pool`` is serial) and
        written back in submission order.
        """
        sampler = self._sampler(graph)
        n = graph.num_users if side == "user" else graph.num_items
        transform, weight = self._step_modules(step, side)
        counter_add("sage.vertices_embedded", n)
        tasks = []
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            observe("sage.frontier_size", stop - start)
            chunk = np.arange(start, stop)
            if side == "user":
                neigh = sampler.sample_items_for_users(chunk, fanout)
            else:
                neigh = sampler.sample_users_for_items(chunk, fanout)
            tasks.append((start, stop, neigh))
        params = {
            "m_w": transform.weight.data,
            "m_b": transform.bias.data if transform.bias is not None else None,
            "w_w": weight.weight.data,
            "w_b": weight.bias.data if weight.bias is not None else None,
            "activation": self.config.activation,
            "aggregator": self.config.aggregator,
        }
        if pool is None:
            pool = get_pool(1)
        out = np.empty((n, self.config.embedding_dim), dtype=np.float64)
        with shared_arrays(pool, own_prev, other_prev) as (own_h, other_h):
            rows = pool.map(
                _layerwise_chunk,
                tasks,
                context=(own_h, other_h, params),
                label="sage.layerwise_chunk",
            )
        for (start, stop, _), block in zip(tasks, rows):
            out[start:stop] = block
        return out

    # ------------------------------------------------------------------
    # Sharded layer-wise inference (out-of-core)
    # ------------------------------------------------------------------
    def _shard_sampler(self, store):
        """Cached per-store sampler over shard blocks (mirrors _sampler)."""
        from repro.shard.sampler import ShardedNeighborSampler

        cached = self._shard_sampler_cache
        if cached is None or cached[0] is not store or cached[1].rng is not self._sample_rng:
            self._shard_sampler_cache = (
                store,
                ShardedNeighborSampler(store, rng=self._sample_rng),
            )
            cached = self._shard_sampler_cache
        return cached[1]

    def _store_feature_spec(self, store, side: str) -> tuple[str, tuple[int, int]]:
        """(path, shape) of the store's step-0 matrix, validated."""
        dim = store.feature_dim(side)
        if dim is None:
            raise ValueError(f"graph is missing {side} features")
        expected = self.user_dim if side == "user" else self.item_dim
        if dim != expected:
            raise ValueError(
                f"{side} features have dim {dim}, module expects {expected}"
            )
        return str(store.feature_path(side)), (store.num(side), dim)

    def _embed_all_sharded(
        self, store, batch_size: int, pool, work_dir=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One mmap-to-mmap pass per step; see :meth:`embed_all_sharded`."""
        from pathlib import Path

        from repro.shard.storage import allocate_block, open_block

        cfg = self.config
        work = Path(work_dir) if work_dir is not None else store.path / "embed"
        work.mkdir(parents=True, exist_ok=True)
        sampler = self._shard_sampler(store)
        current = {
            side: self._store_feature_spec(store, side) for side in ("user", "item")
        }
        for step in range(1, cfg.num_steps + 1):
            fanout = cfg.neighbor_samples[cfg.num_steps - step]
            new: dict[str, tuple[str, tuple[int, int]]] = {}
            for side in ("user", "item"):
                other = "item" if side == "user" else "user"
                # Double-buffered by step parity: the file this step
                # overwrites held step-2's matrix, which nothing reads
                # any more.
                out_path = work / f"h_{side}_{step % 2}.bin"
                out_shape = (store.num(side), cfg.embedding_dim)
                allocate_block(out_path, np.float64, out_shape)
                self._sharded_pass(
                    store,
                    sampler,
                    current[side],
                    current[other],
                    (str(out_path), out_shape),
                    step,
                    side,
                    fanout,
                    batch_size,
                    pool,
                )
                new[side] = (str(out_path), out_shape)
            current = new
        return (
            open_block(current["user"][0], np.float64, current["user"][1], mode="r"),
            open_block(current["item"][0], np.float64, current["item"][1], mode="r"),
        )

    def _sharded_pass(
        self,
        store,
        sampler,
        own_spec: tuple[str, tuple[int, int]],
        other_spec: tuple[str, tuple[int, int]],
        out_spec: tuple[str, tuple[int, int]],
        step: int,
        side: str,
        fanout: int,
        batch_size: int,
        pool,
    ) -> None:
        """Step-``step`` matrices for ``side``, streamed through mmaps.

        Sampling happens here in the parent, chunk by chunk in the same
        global order as the dense :meth:`_layerwise_pass` — that is the
        fixed-order frontier exchange: the RNG stream, and therefore
        every sampled id, matches the dense path regardless of shard
        count or worker count.  Chunks are then grouped into one map
        task per shard (a chunk belongs to the shard owning most of its
        rows) so each worker streams one shard's blocks.
        """
        n = store.num(side)
        transform, weight = self._step_modules(step, side)
        counter_add("sage.vertices_embedded", n)
        own_shard = store.shard_of(side)
        other = "item" if side == "user" else "user"
        other_shard = store.shard_of(other)
        chunks_per_shard: list[list[tuple[int, int, np.ndarray]]] = [
            [] for s in range(store.num_shards)
        ]
        with span(
            "shard.frontier_exchange", side=side, step=step, fanout=fanout
        ):
            for start in range(0, n, batch_size):
                stop = min(start + batch_size, n)
                observe("sage.frontier_size", stop - start)
                heartbeat(
                    f"shard.frontier.{side}", stop, n, step=step, fanout=fanout
                )
                chunk = np.arange(start, stop)
                if side == "user":
                    neigh = sampler.sample_items_for_users(chunk, fanout)
                else:
                    neigh = sampler.sample_users_for_items(chunk, fanout)
                valid = neigh >= 0
                cross = valid & (
                    other_shard[np.where(valid, neigh, 0)]
                    != own_shard[start:stop, None]
                )
                counter_add("shard.frontier_rows", int(valid.sum()))
                counter_add("shard.frontier_cross_rows", int(cross.sum()))
                home = int(
                    np.bincount(
                        own_shard[start:stop], minlength=store.num_shards
                    ).argmax()
                )
                chunks_per_shard[home].append((start, stop, neigh))
        params = {
            "m_w": transform.weight.data,
            "m_b": transform.bias.data if transform.bias is not None else None,
            "w_w": weight.weight.data,
            "w_b": weight.bias.data if weight.bias is not None else None,
            "activation": self.config.activation,
            "aggregator": self.config.aggregator,
        }
        tasks = [
            (shard, chunks)
            for shard, chunks in enumerate(chunks_per_shard)
            if chunks
        ]
        pool.map(
            _sharded_shard_task,
            tasks,
            context=(own_spec, other_spec, out_spec, params),
            label="sage.sharded_shard",
        )

    def _aggregate(self, stacked: Tensor, valid: np.ndarray) -> Tensor:
        """AGGREGATE over the fan-out axis with a validity mask.

        ``stacked`` is (n, K, d); ``valid`` marks real neighbours (False
        entries are padding for isolated vertices).
        """
        agg = self.config.aggregator
        # Masking with all-ones is exact, so it is skipped when every
        # slot is valid (the common case: isolated vertices are rare).
        all_valid = valid.all()
        if agg == "max":
            if all_valid:
                return stacked.max(axis=1)
            neg_inf = Tensor(np.full(stacked.shape, -1e30))
            out = where(valid[:, :, None], stacked, neg_inf).max(axis=1)
            return out * valid.any(axis=1)[:, None].astype(float)
        if agg not in ("mean", "weighted_mean", "sum"):
            raise ValueError(f"unknown aggregator {agg!r}")
        masked = stacked if all_valid else stacked * valid.astype(float)[:, :, None]
        summed = masked.sum(axis=1)
        if agg == "sum":
            return summed
        # weighted_mean differs only in how neighbours are *sampled*
        # (importance sampling by edge weight happens upstream).
        counts = np.maximum(valid.sum(axis=1, keepdims=True), 1).astype(float)
        return summed * (1.0 / counts)
