"""Bipartite GraphSAGE (Section III-B, Eqs. 1–4).

Users aggregate embeddings from sampled item neighbours and vice versa.
Each side owns its aggregators, per-step weight matrices ``W_u^p`` /
``W_i^p`` and cross-space transformation matrices ``M_i^u`` / ``M_u^i``
(Eqs. 1–2).  The query–item variant of Section V-B shares one set of
matrices across both sides (Eqs. 8–11); enable it with
``SageConfig.shared_space=True`` (requires equal feature dimensions).

Training and serving run one forward: Eqs. 1–4 are :func:`_sage_step`,
and neighbours come from the counter-hash draw :func:`_draw`, keyed by
``(sample_seed, side, step, *key)`` at counter ``(vertex, slot)``.
``key`` is ``()`` for serving and ``(epoch, batch)`` for training.
Both matmuls run whole ``_TILE``-row tiles (a BLAS may round a row
differently with the number of rows in its call, but not with which
rows they are), so a row's bytes depend only on its vertex, its
neighbours' rows and the weights.

* **Block mini-batch step** — :meth:`embed_block` is handed every id a
  training batch needs on each side (positives and negatives together)
  and plans the standard GraphSAGE "blocks" top-down: the deduplicated
  frontier of each (side, step) from step ``P`` down to the raw features
  at step 0, with one neighbour draw per (side, step) at fan-outs
  ``K_1, ..., K_P`` (the K's of the paper's complexity analysis) — so
  ``2·P`` draws per batch.  It then computes each step's user and item
  matrices once, bottom-up, with autograd, and gathers the requested
  rows, so each vertex is embedded once per step (Section III-D; cf.
  Cascade-BGNN's redundancy elimination).  Under the serving key its
  rows are :meth:`embed_all`'s, bitwise.
* **Layer-wise full-graph inference** — :meth:`embed_all` computes the
  step-``p`` matrices for *all* vertices from the cached step-``p-1``
  matrices, one pass per step, instead of re-expanding the whole
  receptive field per batch.

One engine runs every layer-wise pass — dense and sharded
:meth:`embed_all`, and :class:`~repro.streaming.StreamingEmbedder`'s
full and delta passes — over a neighbour source: a ``BipartiteGraph``
or a ``ShardedCSR`` store, with :func:`_sage_step` outside autograd.
Tasks of ``batch_size`` rows are only scheduling, so a graph and its
shard store, any worker count, any ``batch_size`` and a delta refresh
of a subset of rows all give the same bytes.  Step matrices live in RAM
for graphs and in memory-mapped files for stores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.sampling import sample_neighbors
from repro.nn.layers import _ACTIVATIONS, Linear, Module
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.obs.monitor import heartbeat
from repro.nn.tensor import Tensor, concat, no_grad, where
from repro.parallel import as_ndarray, get_pool, shared_arrays
from repro.shard.storage import MappedMatrix, allocate_block, open_block
from repro.utils.config import SageConfig
from repro.utils.rng import counter_uniforms, ensure_rng

__all__ = ["BipartiteGraphSAGE"]


def _aggregate(stacked: Tensor, valid: np.ndarray, agg: str) -> Tensor:
    """AGGREGATE over the fan-out axis with a validity mask.

    ``stacked`` is (n, K, d); ``valid`` marks real neighbours (False
    entries are padding for isolated vertices).
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
    if agg not in ("mean", "sum"):
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


def _chunk_plan(n: int, batch_size: int, rows: np.ndarray | None) -> list[np.ndarray]:
    """``rows`` (default: all ``n`` vertices) split into tasks of at most
    ``batch_size`` rows; counts the rows each task embeds."""
    rows = np.arange(n) if rows is None else rows
    plan = [rows[start : start + batch_size] for start in range(0, len(rows), batch_size)]
    for pick in plan:
        counter_add("sage.vertices_embedded", len(pick))
        observe("sage.frontier_size", len(pick))
    return plan


# Key separating the neighbour-draw streams of training and serving from
# every other seed consumer (the trainer derives its RNGs with small
# integer keys).
_STREAM_KEY = 0x51BE
# Rows per matmul tile of _tiled_matmul.
_TILE = 128
_OTHER = {"user": "item", "item": "user"}


def _matrix(handle) -> np.ndarray:
    """A step matrix from its handle: an ndarray, a shared-memory
    handle, or a :class:`MappedMatrix`."""
    if isinstance(handle, MappedMatrix):
        return handle.array
    return as_ndarray(handle)


def _tiled_matmul(a: Tensor, w: Tensor | np.ndarray) -> Tensor:
    """``a @ w`` as one stacked matmul over ``_TILE``-row tiles, the last
    zero-padded: every row is multiplied in a call of the same shape, so
    its bytes do not depend on how many rows ``a`` has.  The backward is
    the plain 2-D matmul VJP; tiling only fixes the forward's rounding."""
    w = w if isinstance(w, Tensor) else Tensor(w)
    n, k = a.shape
    tiles = np.zeros((-(-n // _TILE), _TILE, k))
    tiles.reshape(-1, k)[:n] = a.data
    out = (tiles @ w.data).reshape(-1, w.shape[1])[:n]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ w.data.T, owned=True)
        if w.requires_grad:
            w._accumulate(a.data.T @ grad, owned=True)

    return Tensor._make(out, (a, w), backward)


def _draw(source, side: str, vertices: np.ndarray, fanout: int, seed: int, step: int, key=()):
    """The one neighbour draw: slot ``s`` of vertex ``v`` reads the
    counter-hash uniform at ``(v, s)`` of the stream keyed by
    ``(seed, _STREAM_KEY, side, step, *key)``; ``key`` is ``()`` for
    serving and ``(epoch, batch)`` for training."""
    keys = (seed, _STREAM_KEY, _SIDES.index(side), step, *key)
    return sample_neighbors(source, side, vertices, counter_uniforms(keys, vertices, fanout))


def _sage_step(own: Tensor, stacked: Tensor, valid: np.ndarray, params: dict) -> Tensor:
    """One step of Eqs. 1–4, for training and serving alike: ``own``
    holds the vertices' step-``p-1`` rows, ``stacked`` their sampled
    neighbours' rows as (n, K, d) with ``valid`` marking real ones, and
    ``params`` the step's weights (Tensors or arrays), aggregator and
    activation.  Every operation is row-wise and both matmuls tiled, so
    a row's bytes do not depend on which other rows share the call."""
    aggregated = _aggregate(stacked, valid, params["aggregator"])
    transformed = _tiled_matmul(aggregated, params["m_w"])  # Eq. 1 / Eq. 2 (no bias)
    combined = concat([own, transformed], axis=-1)
    z = _tiled_matmul(combined, params["w_w"]) + params["w_b"]
    return _ACTIVATIONS[params["activation"]](z)  # Eq. 3 / Eq. 4


def _chunk_kernel(
    own: np.ndarray, other_prev: np.ndarray, neigh: np.ndarray, params: dict
) -> np.ndarray:
    """:func:`_sage_step` for a set of vertices, outside autograd.

    ``own`` holds the vertices' step-``p-1`` rows, ``neigh`` their
    sampled neighbours as row ids of ``other_prev`` (-1 for none),
    ``params`` the step's weights as arrays.
    """
    valid = neigh >= 0
    with no_grad():
        stacked = Tensor(other_prev[np.where(valid, neigh, 0)])
        return _sage_step(Tensor(own), stacked, valid, params).data


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
        Root of the content-addressed neighbour draws of training and
        serving.
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
        if cfg.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {cfg.activation!r}")
        rng = ensure_rng(rng)
        self.user_dim = user_dim
        self.item_dim = item_dim
        d = cfg.embedding_dim

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
        # The draw of a retired Generator-fed training sampler, still
        # consumed so that ``sample_seed`` (and every served byte) stays put.
        rng.integers(0, 2**63 - 1, size=2)
        self.sample_seed = int(rng.integers(0, 2**63 - 1))

    # ------------------------------------------------------------------
    # Embedding computation
    # ------------------------------------------------------------------
    def embed_users(self, graph: BipartiteGraph, user_ids: np.ndarray) -> Tensor:
        """Final user embeddings z_u for ``user_ids`` (builds autograd
        graph); under the serving key, :meth:`embed_all`'s rows."""
        return self.embed_block(graph, users=[user_ids])[0][0]

    def embed_items(self, graph: BipartiteGraph, item_ids: np.ndarray) -> Tensor:
        """Final item embeddings z_i for ``item_ids`` (builds autograd
        graph); under the serving key, :meth:`embed_all`'s rows."""
        return self.embed_block(graph, items=[item_ids])[1][0]

    def embed_block(
        self,
        graph: BipartiteGraph,
        users: Sequence[np.ndarray] = (),
        items: Sequence[np.ndarray] = (),
        key: tuple[int, ...] = (),
    ) -> tuple[list[Tensor], list[Tensor]]:
        """Final embeddings for several id requests per side, as one block.

        ``users`` / ``items`` list every id array a mini-batch needs on
        that side (e.g. its positives and its negatives); one
        :class:`Tensor` per request comes back, in order, and -1 ids
        give zero rows.  The requests share one deduplicated frontier per
        (side, step), one neighbour draw per (side, step) and one
        step-``p`` matrix per side, so each vertex is embedded once per
        step however many requests reach it.  ``key`` extends the draw
        stream (see :func:`_draw`): the default ``()`` is the serving
        stream, under which the rows are :meth:`embed_all`'s, bitwise.
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
        for step in range(steps, 0, -1):
            fanout = cfg.neighbor_samples[steps - step]
            top = frontiers[step]
            for side in _SIDES:
                counter_add("sage.vertices_embedded", len(top[side]))
                if len(top[side]):
                    observe("sage.frontier_size", len(top[side]))
            draws[step] = {
                side: _draw(graph, side, top[side], fanout, self.sample_seed, step, key)
                for side in _SIDES
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

    def _layer(
        self,
        step: int,
        side: str,
        own_prev: Tensor,
        neigh_prev: Tensor,
        valid: np.ndarray,
    ) -> Tensor:
        """:func:`_sage_step` with autograd, from gathered step-``step - 1``
        rows: ``own_prev`` holds the vertices' own rows, ``neigh_prev``
        their sampled neighbours' rows, flat in ``valid``'s (n, K) order.
        """
        stacked = neigh_prev.reshape(valid.shape[0], valid.shape[1], neigh_prev.shape[1])
        return _sage_step(own_prev, stacked, valid, self._step_params(step, side))

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
                params = self._step_params(step, side)  # arrays travel, not Parameters
                context = (
                    source,
                    side,
                    handles[side],
                    handles[_OTHER[side]],
                    None if out is None else out[side],
                    sample_seed,
                    step,
                    fanout,
                    {k: getattr(v, "data", v) for k, v in params.items()},
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
        """The ``params`` of :func:`_sage_step` for ``step`` on ``side``:
        the (M, W) parameters of Eqs. 1–4, aggregator and activation."""
        if side == "user":
            transform, weight = self.user_transform[step - 1], self.user_weight[step - 1]
        else:
            transform, weight = self.item_transform[step - 1], self.item_weight[step - 1]
        return {
            "m_w": transform.weight,  # M has no bias, W always has one
            "w_w": weight.weight,
            "w_b": weight.bias,
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
