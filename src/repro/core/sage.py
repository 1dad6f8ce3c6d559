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

One engine runs every layer-wise pass — dense and sharded
:meth:`embed_all`, and :class:`~repro.streaming.StreamingEmbedder`'s
full and delta passes — over a neighbour source: a ``BipartiteGraph``
or a ``ShardedCSR`` store.  Each output row is a pure function of its
vertex, its neighbours' step-``p-1`` rows and the weights: a vertex
draws its neighbours from the counter hash ``(sample_seed, _STREAM_KEY,
side, step)`` at counter ``(vertex, slot)``, and :func:`_chunk_kernel`
runs both matmuls over whole ``_TILE``-row tiles (a BLAS may round a
row differently with the number of rows in its call, but not with which
rows they are).  Tasks of ``batch_size`` rows are only scheduling, so a
graph and its shard store, any worker count, any ``batch_size`` and a
delta refresh of a subset of rows all give the same bytes.  Step
matrices live in RAM for graphs and in memory-mapped files for stores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.sampling import NeighborSampler, sample_neighbors
from repro.nn.layers import _ACTIVATIONS, Activation, Linear, Module
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.obs.monitor import heartbeat
from repro.nn.tensor import Tensor, concat, no_grad, where
from repro.parallel import as_ndarray, get_pool, shared_arrays
from repro.shard.storage import MappedMatrix, allocate_block, open_block
from repro.utils.config import SageConfig
from repro.utils.rng import counter_uniforms, derive_rng, ensure_rng

__all__ = ["BipartiteGraphSAGE"]


def _aggregate(stacked: Tensor, valid: np.ndarray, agg: str) -> Tensor:
    """AGGREGATE over the fan-out axis with a validity mask.

    ``stacked`` is (n, K, d); ``valid`` marks real neighbours (False
    entries are padding for isolated vertices).  The training step and
    the layer-wise kernel both run this one function.
    """
    # Masking with all-ones is exact, so it is skipped when every slot
    # is valid (the common case: isolated vertices are rare).
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


def _chunk_plan(n: int, batch_size: int, rows: np.ndarray | None) -> list[np.ndarray]:
    """``rows`` (default: all ``n`` vertices) split into tasks of at most
    ``batch_size`` rows; counts the rows each task embeds."""
    rows = np.arange(n) if rows is None else rows
    plan = [rows[start : start + batch_size] for start in range(0, len(rows), batch_size)]
    for pick in plan:
        counter_add("sage.vertices_embedded", len(pick))
        observe("sage.frontier_size", len(pick))
    return plan


# Key separating the layer-wise sampling stream from every other seed
# consumer (the trainer derives its RNGs with small integer keys).
_STREAM_KEY = 0x51BE
# Rows per matmul tile in the layer-wise kernel.
_TILE = 128
_OTHER = {"user": "item", "item": "user"}


def _matrix(handle) -> np.ndarray:
    """A step matrix from its handle: an ndarray, a shared-memory
    handle, or a :class:`MappedMatrix`."""
    if isinstance(handle, MappedMatrix):
        return handle.array
    return as_ndarray(handle)


def _tiled_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` as one stacked matmul over ``_TILE``-row tiles, the last
    zero-padded: every row is multiplied in a call of the same shape, so
    its bytes do not depend on how many rows ``a`` has."""
    n, k = a.shape
    tiles = np.zeros((-(-n // _TILE), _TILE, k))
    tiles.reshape(-1, k)[:n] = a
    return (tiles @ w).reshape(-1, w.shape[1])[:n]


def _draw(source, side: str, vertices: np.ndarray, fanout: int, seed: int, step: int):
    """The engine's neighbour draw: slot ``s`` of vertex ``v`` reads the
    counter-hash uniform at ``(v, s)`` of the stream keyed by
    ``(seed, _STREAM_KEY, side, step)``."""
    uniforms = counter_uniforms((seed, _STREAM_KEY, _SIDES.index(side), step), vertices, fanout)
    return sample_neighbors(source, side, vertices, uniforms)


def _chunk_kernel(
    own: np.ndarray, other_prev: np.ndarray, neigh: np.ndarray, params: dict
) -> np.ndarray:
    """Eqs. 1–4 for a set of vertices, outside autograd.

    ``own`` holds the vertices' step-``p-1`` rows, ``neigh`` their
    sampled neighbours as row ids of ``other_prev`` (-1 for none),
    ``params`` the step's weights.  Every operation is row-wise and both
    matmuls run whole ``_TILE``-row tiles, so a row's bytes do not depend
    on which other rows share the call, nor on their order.  The
    aggregate and the activation are the training path's Tensor
    functions, run under ``no_grad``; they evaluate plain numpy
    expressions, so the bytes match the autograd forward.
    """
    valid = neigh >= 0
    stacked = other_prev[np.where(valid, neigh, 0)]
    with no_grad():
        aggregated = _aggregate(Tensor(stacked), valid, params["aggregator"]).data
    transformed = _tiled_matmul(aggregated, params["m_w"])  # Eq. 1 / Eq. 2 (no bias)
    combined = np.concatenate([own, transformed], axis=-1)
    z = _tiled_matmul(combined, params["w_w"]) + params["w_b"]
    with no_grad():
        return _ACTIVATIONS[params["activation"]](Tensor(z)).data  # Eq. 3 / Eq. 4


def _chunk_task(rows: np.ndarray, context: tuple) -> np.ndarray | None:
    """Draw the neighbours of ``rows`` (sorted vertex ids) and embed them
    at one step.

    ``context`` is ``(source, side, own, other, out, sample_seed, step,
    fanout, params)``: the neighbour source (a store travels as its
    path), handles of both sides' step-``p-1`` matrices, a writable
    :class:`MappedMatrix` for the rows (None: return them), and the
    step's weights.
    """
    source, side, own, other, out, sample_seed, step, fanout, params = context
    own_prev, other_prev = _matrix(own), _matrix(other)
    neigh = _draw(source, side, rows, fanout, sample_seed, step)
    z = _chunk_kernel(own_prev[rows], other_prev, neigh, params)
    if out is None:
        return z
    # MAP_SHARED writes are visible to every other mapping of the file
    # at once; these scratch matrices need no flush.
    out.array[rows] = z
    return None


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

    Attributes
    ----------
    sample_seed:
        Root of :meth:`embed_all`'s content-addressed neighbour draws.
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
        # Root of the layer-wise (inference) sampling stream; drawn after
        # ``_sample_rng`` so the training draws do not move.
        self.sample_seed = int(rng.integers(0, 2**63 - 1))
        # One NeighborSampler per graph, built lazily on first use —
        # the recursion previously rebuilt a sampler at every step.
        self._sampler_cache: tuple[BipartiteGraph, NeighborSampler] | None = None

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
        source,
        batch_size: int = 2048,
        mode: str = "layerwise",
        workers: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode embeddings (Z_u, Z_i) for every vertex.

        Layer-wise: each step is computed for the whole graph from the
        cached previous-step matrices — O(P·N·K·d) work instead of the
        recursion's O(N·K_1·...·K_P·d).  Called at every HiGNN level
        (Algorithm 1).

        ``source`` is a ``BipartiteGraph`` (step matrices in RAM;
        ndarrays come back) or a ``ShardedCSR`` store (out of core: step
        matrices double-buffered in memmaps under ``<store>/embed``;
        read-only memmaps come back and stay valid across later calls).
        Neighbours come from the per-vertex counter hash rooted at
        :attr:`sample_seed`, so a graph and its store give the same
        bytes at any ``workers`` (default: the configured pool size) and
        any ``batch_size`` (rows per worker task) — the bytes of
        ``StreamingEmbedder(self, sample_seed=self.sample_seed)
        .full_embed(graph)``.  ``mode`` only accepts ``"layerwise"``.
        """
        if mode != "layerwise":
            raise ValueError(f"unknown embed_all mode {mode!r}; only 'layerwise' exists")
        on_disk = not isinstance(source, BipartiteGraph)
        pool = get_pool(workers)
        self.eval()
        with span(
            "sage.embed_all",
            num_users=source.num_users,
            num_items=source.num_items,
        ), no_grad():
            h = {side: self._features(source, side) for side in _SIDES}
            for step in range(1, self.config.num_steps + 1):
                out = self._step_files(source, step) if on_disk else None
                h = self._layerwise_pass(
                    source, h, step, batch_size, pool, self.sample_seed, out=out
                )
        self.train()
        if on_disk:  # read-only views of the last step's files
            return tuple(open_block(h[s].path, np.float64, h[s].shape) for s in _SIDES)
        return h["user"], h["item"]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _features(self, source, side: str):
        """Validated step-0 matrix of ``side``: the graph's ndarray, or
        the store's mapped feature file."""
        if isinstance(source, BipartiteGraph):
            feats = source.user_features if side == "user" else source.item_features
            dim = None if feats is None else feats.shape[1]
        else:
            dim = source.feature_dim(side)
        if dim is None:
            raise ValueError(f"graph is missing {side} features")
        expected = self.user_dim if side == "user" else self.item_dim
        if dim != expected:
            raise ValueError(f"{side} features have dim {dim}, module expects {expected}")
        if isinstance(source, BipartiteGraph):
            return feats
        return MappedMatrix(source.feature_path(side), (source.num(side), dim))

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
        aggregated = _aggregate(stacked, valid, self.config.aggregator)
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
    # Layer-wise inference: the one pass behind every full-graph embedding
    # ------------------------------------------------------------------
    def _layerwise_pass(
        self,
        source,
        prev: dict,
        step: int,
        batch_size: int,
        pool,
        sample_seed: int,
        rows: dict[str, np.ndarray] | None = None,
        cached: dict[str, np.ndarray] | None = None,
        out: dict[str, MappedMatrix] | None = None,
    ) -> dict:
        """Step-``step`` matrices of both sides from the step-``step-1``
        matrices ``prev``: one :func:`_chunk_task` map over ``pool`` per
        side (a worker then maps one side's output at a time).

        With ``rows`` (sorted ids per side) only those rows are
        recomputed; every other row is copied from ``cached`` (shorter
        when the graph grew — new tail rows are always listed).  With
        ``out`` (per-side writable :class:`MappedMatrix`; ``prev`` then
        maps files too) the tasks write their rows to disk and ``out``
        comes back.  Otherwise the matrices stay in RAM, shared with
        workers for the map.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        cfg = self.config
        fanout = cfg.neighbor_samples[cfg.num_steps - step]
        new = {}
        # Mapped files already travel by path; only RAM matrices are shared.
        sharing = pool if out is None else None
        with shared_arrays(sharing, prev["user"], prev["item"]) as shared:
            handles = dict(zip(_SIDES, shared))
            for side in _SIDES:
                n = source.num_users if side == "user" else source.num_items
                plan = _chunk_plan(n, batch_size, None if rows is None else rows[side])
                if cached is not None and not plan:
                    new[side] = cached[side]  # nothing affected: shape unchanged
                    continue
                context = (
                    source,
                    side,
                    handles[side],
                    handles[_OTHER[side]],
                    None if out is None else out[side],
                    sample_seed,
                    step,
                    fanout,
                    self._step_params(step, side),
                )
                blocks = pool.map(
                    _chunk_task, plan, context=context, label="sage.layerwise_chunk"
                )
                if out is not None:
                    new[side] = out[side]
                    continue
                new[side] = np.empty((n, cfg.embedding_dim), dtype=np.float64)
                if cached is not None:
                    new[side][: len(cached[side])] = cached[side]
                for pick, block in zip(plan, blocks):
                    new[side][pick] = block
        heartbeat("sage.layerwise", step, cfg.num_steps)
        return new

    def _step_params(self, step: int, side: str) -> dict:
        """The step's weights as plain arrays, for :func:`_chunk_kernel`."""
        transform, weight = self._step_modules(step, side)
        return {
            "m_w": transform.weight.data,  # M has no bias, W always has one
            "w_w": weight.weight.data,
            "w_b": weight.bias.data,
            "activation": self.config.activation,
            "aggregator": self.config.aggregator,
        }

    def _step_files(self, store, step: int) -> dict[str, MappedMatrix]:
        """Fresh writable files for ``step``'s matrices under
        ``<store>/embed``, double-buffered by step parity: the file a
        step replaces held step ``p-2``, which nothing reads any more."""
        work = store.path / "embed"
        work.mkdir(exist_ok=True)
        files = {}
        for side in _SIDES:
            path = work / f"h_{side}_{step % 2}.bin"
            shape = (store.num(side), self.config.embedding_dim)
            allocate_block(path, np.float64, shape)
            files[side] = MappedMatrix(path, shape, mode="r+")
        return files
