"""Delta-aware online embedding refresh over cached layer-wise matrices.

Layer-wise inference caches the step ``p-1`` matrix while computing step
``p`` — exactly the structure Cascade-BGNN exploits for cheap per-layer
recomputation.  :class:`StreamingEmbedder` keeps *all* per-step matrices
alive between calls so that after a graph delta only the rows whose
inputs could have changed are recomputed.  Full and delta passes both
run the model's one layer-wise engine
(:meth:`repro.core.sage.BipartiteGraphSAGE._layerwise_pass`).

Two properties of that engine make :meth:`StreamingEmbedder.refresh`
**bitwise identical** to a full pass over the mutated graph (not merely
close):

1. **Content-addressed sampling.**  The RNG for every chunk's neighbour
   draw is derived *purely from its coordinates* —
   ``derive_rng(sample_seed, key, side, step, chunk_index)`` — so a full
   pass and a delta pass draw identical neighbours for the same chunk.
   A row's draw reads only its own slot of the chunk's uniform block
   and its own adjacency row (whose order the incremental graph
   preserves), so rows left untouched keep draws identical to what a
   full pass would have drawn for them.

2. **Row-selected recomputation at full-chunk shape.**  A refresh
   recomputes only the affected rows, so its cost follows the delta,
   not the graph.  BLAS matmuls are not guaranteed bitwise-stable
   across operand shapes, so the affected rows are not pushed through a
   smaller matmul.  Each chunk holding an affected row draws its whole
   neighbour block (as the full pass does), and
   :func:`repro.core.sage._chunk_kernel` gathers and aggregates only
   the selected rows, then scatters them into a zero matrix of the
   chunk's full shape.  Both matmuls therefore see the full pass's
   operand shapes and row positions, and the kept rows are identical
   bytes, at any worker count (results are reduced in fixed submission
   order).

The affected set is propagated conservatively: a row is affected at step
``p`` if it is new, its adjacency changed (dirty), it was affected at
step ``p-1``, or it is adjacent to a vertex of the opposite side that
was affected at step ``p-1``.  Sampled neighbours are a subset of actual
neighbours, so this is a superset of the rows whose values can change —
every untouched row provably reads only unchanged inputs.

When the affected-row fraction exceeds ``degrade_threshold`` the
refresh gracefully degrades to a full pass (same result, simpler execution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.parallel import get_pool
from repro.streaming.incremental import IncrementalBipartiteGraph

__all__ = ["RefreshStats", "StreamingEmbedder"]

_SIDES = ("user", "item")


@dataclass(frozen=True)
class RefreshStats:
    """What a :meth:`StreamingEmbedder.refresh` call actually did."""

    mode: str  # "delta" or "full"
    degraded: bool  # True when a delta request fell back to a full pass
    dirty_users: int
    dirty_items: int
    rows_recomputed: int  # affected rows recomputed, summed over steps
    rows_total: int  # all rows across all steps and both sides
    chunks_recomputed: int  # chunks whose neighbours were sampled
    chunks_total: int

    @property
    def recompute_fraction(self) -> float:
        return self.rows_recomputed / self.rows_total if self.rows_total else 0.0


class StreamingEmbedder:
    """Layer-wise embeddings with delta-aware refresh for a SAGE model.

    Parameters
    ----------
    model:
        A :class:`~repro.core.sage.BipartiteGraphSAGE` whose weights are
        treated as frozen between :meth:`full_embed` and
        :meth:`refresh` (retrain → call :meth:`full_embed` again).
    sample_seed:
        Root of the content-addressed sampling stream.  Two embedders
        with the same seed, model, and graph produce identical bytes;
        at ``model.sample_seed`` they are the bytes of
        ``model.embed_all``.
    batch_size:
        Chunk size of the layer-wise passes.  A refresh samples every
        chunk holding an affected row but recomputes only the affected
        rows, so this does not set the refresh granularity.
    degrade_threshold:
        Fall back to a full pass when the affected-row fraction exceeds
        this value.
    """

    def __init__(
        self,
        model,
        sample_seed: int = 0,
        batch_size: int = 2048,
        degrade_threshold: float = 0.25,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < degrade_threshold <= 1.0:
            raise ValueError("degrade_threshold must be in (0, 1]")
        self.model = model
        self.sample_seed = int(sample_seed)
        self.batch_size = int(batch_size)
        self.degrade_threshold = float(degrade_threshold)
        # Per-step matrices for steps 0..P ({"user": ..., "item": ...});
        # step 0 aliases the graph's feature matrices (immutable).
        self._h: list[dict[str, np.ndarray]] | None = None
        self._shape: tuple[int, int] | None = None
        self.last_stats: RefreshStats | None = None

    # ------------------------------------------------------------------
    # Full pass
    # ------------------------------------------------------------------
    def full_embed(
        self, graph: BipartiteGraph, workers: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embed every vertex, caching all per-step matrices.

        The computation of ``model.embed_all(graph)`` with this
        embedder's ``sample_seed`` and ``batch_size``.
        """
        pool = get_pool(workers)
        model = self.model
        with span(
            "streaming.full_embed",
            num_users=graph.num_users,
            num_items=graph.num_items,
        ):
            h = [{side: model._features(graph, side) for side in _SIDES}]
            for step in range(1, model.config.num_steps + 1):
                h.append(
                    model._layerwise_pass(
                        graph, h[-1], step, self.batch_size, pool, self.sample_seed
                    )
                )
        self._h = h
        self._shape = (graph.num_users, graph.num_items)
        counter_add("streaming.full_passes", 1)
        return self.embeddings

    @property
    def embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached final-step ``(Z_u, Z_i)``."""
        if self._h is None:
            raise RuntimeError("no embeddings yet — call full_embed() first")
        return self._h[-1]["user"], self._h[-1]["item"]

    # ------------------------------------------------------------------
    # Delta refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        graph: BipartiteGraph | IncrementalBipartiteGraph,
        dirty_users: np.ndarray | None = None,
        dirty_items: np.ndarray | None = None,
        workers: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bring the cached embeddings up to date with a mutated graph.

        Accepts an :class:`IncrementalBipartiteGraph` directly (its
        dirty frontier is consumed and cleared on success) or a plain
        graph plus explicit dirty user/item id arrays.  Returns the
        refreshed ``(Z_u, Z_i)``; inspect :attr:`last_stats` for what
        was recomputed.
        """
        inc: IncrementalBipartiteGraph | None = None
        if isinstance(graph, IncrementalBipartiteGraph):
            inc = graph
            if dirty_users is None:
                dirty_users = inc.dirty_users
            if dirty_items is None:
                dirty_items = inc.dirty_items
            graph = inc.graph
        dirty_users = np.unique(
            np.asarray([] if dirty_users is None else dirty_users, dtype=np.int64)
        )
        dirty_items = np.unique(
            np.asarray([] if dirty_items is None else dirty_items, dtype=np.int64)
        )
        with span(
            "streaming.refresh",
            dirty_users=len(dirty_users),
            dirty_items=len(dirty_items),
        ):
            out = self._refresh(graph, dirty_users, dirty_items, workers)
        if inc is not None:
            inc.clear_dirty()
        counter_add("streaming.refreshes", 1)
        counter_add("streaming.rows_recomputed", self.last_stats.rows_recomputed)
        observe("streaming.recompute_fraction", self.last_stats.recompute_fraction)
        return out

    def _refresh(
        self,
        graph: BipartiteGraph,
        dirty_users: np.ndarray,
        dirty_items: np.ndarray,
        workers: int | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.model.config
        nu, ni = graph.num_users, graph.num_items
        steps = cfg.num_steps
        rows_total = (nu + ni) * steps
        if self._h is None:
            # Cold start: nothing cached, a full pass is the refresh.
            out = self.full_embed(graph, workers)
            self.last_stats = RefreshStats(
                mode="full",
                degraded=False,
                dirty_users=len(dirty_users),
                dirty_items=len(dirty_items),
                rows_recomputed=rows_total,
                rows_total=rows_total,
                chunks_recomputed=self._num_chunks(nu, ni) * steps,
                chunks_total=self._num_chunks(nu, ni) * steps,
            )
            return out
        old_nu, old_ni = self._shape
        if nu < old_nu or ni < old_ni:
            raise ValueError(
                "streaming graphs only grow: cached shape "
                f"({old_nu}, {old_ni}) vs graph ({nu}, {ni})"
            )
        if len(dirty_users) and (dirty_users[0] < 0 or dirty_users[-1] >= nu):
            raise ValueError("dirty user id out of range")
        if len(dirty_items) and (dirty_items[0] < 0 or dirty_items[-1] >= ni):
            raise ValueError("dirty item id out of range")

        # Conservative affected-set propagation, one mask pair per step.
        # base = adjacency-dirty ∪ grown chunks (affects every step >= 1);
        # aff_p = base ∪ aff_{p-1} ∪ neighbours(aff_{p-1} of other side).
        # A grown side's old last chunk gains rows, so its matmuls change
        # shape: its old rows are recomputed with the new ones.
        bs = self.batch_size
        base_u = np.zeros(nu, dtype=bool)
        base_u[dirty_users] = True
        base_u[old_nu - old_nu % bs if nu > old_nu else nu :] = True
        base_i = np.zeros(ni, dtype=bool)
        base_i[dirty_items] = True
        base_i[old_ni - old_ni % bs if ni > old_ni else ni :] = True
        aff_u = np.zeros(nu, dtype=bool)  # step 0: only new feature rows
        aff_u[old_nu:] = True
        aff_i = np.zeros(ni, dtype=bool)
        aff_i[old_ni:] = True
        per_step: list[dict[str, np.ndarray]] = []
        for _p in range(1, steps + 1):
            next_u = base_u | aff_u
            next_u[graph.adjacent("item", np.flatnonzero(aff_i))] = True
            next_i = base_i | aff_i
            next_i[graph.adjacent("user", np.flatnonzero(aff_u))] = True
            per_step.append({"user": next_u, "item": next_i})
            aff_u, aff_i = next_u, next_i

        # Decide delta vs full on the affected-row fraction.
        rows_recomputed = sum(int(m.sum()) for masks in per_step for m in masks.values())
        chunks_total = self._num_chunks(nu, ni) * steps
        fraction = rows_recomputed / rows_total if rows_total else 0.0
        if fraction > self.degrade_threshold:
            counter_add("streaming.degradations", 1)
            out = self.full_embed(graph, workers)
            self.last_stats = RefreshStats(
                mode="full",
                degraded=True,
                dirty_users=len(dirty_users),
                dirty_items=len(dirty_items),
                rows_recomputed=rows_total,
                rows_total=rows_total,
                chunks_recomputed=chunks_total,
                chunks_total=chunks_total,
            )
            return out

        # Delta pass: copy cached rows, recompute only the affected rows
        # of each chunk holding one.  New rows (>= old_n) are marked
        # affected at every step, so they are always recomputed.
        pool = get_pool(workers)
        h = [{side: self.model._features(graph, side) for side in _SIDES}]
        chunks_recomputed = 0
        for step in range(1, steps + 1):
            rows = {side: np.flatnonzero(per_step[step - 1][side]) for side in _SIDES}
            chunks_recomputed += sum(len(np.unique(r // bs)) for r in rows.values())
            h.append(
                self.model._layerwise_pass(
                    graph,
                    h[-1],
                    step,
                    bs,
                    pool,
                    self.sample_seed,
                    rows=rows,
                    cached=self._h[step],
                )
            )
        self._h = h
        self._shape = (nu, ni)
        self.last_stats = RefreshStats(
            mode="delta",
            degraded=False,
            dirty_users=len(dirty_users),
            dirty_items=len(dirty_items),
            rows_recomputed=rows_recomputed,
            rows_total=rows_total,
            chunks_recomputed=chunks_recomputed,
            chunks_total=chunks_total,
        )
        return self.embeddings

    def _num_chunks(self, nu: int, ni: int) -> int:
        bs = self.batch_size
        return (nu + bs - 1) // bs + (ni + bs - 1) // bs
