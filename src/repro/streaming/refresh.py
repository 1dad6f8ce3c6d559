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

1. **Per-vertex sampling.**  A vertex's neighbour draw reads counter-hash
   uniforms addressed by ``(sample_seed, key, side, step, vertex, slot)``
   and its own adjacency row (whose order the incremental graph
   preserves), so a full pass and a delta pass draw identical neighbours
   for every vertex whose adjacency is unchanged.

2. **Fixed-tile recomputation.**  A refresh recomputes only the affected
   rows, so its cost follows the delta, not the graph.  BLAS matmuls are
   not bitwise-stable across row counts, so
   :func:`repro.core.sage._chunk_kernel` runs every matmul over whole
   zero-padded tiles of a fixed row count; at a fixed count a row's
   bytes do not depend on the other rows of its call.  The recomputed
   rows are therefore the bytes a full pass gives them, at any
   ``batch_size``.

Both passes run inline: the cached matrices live in RAM, and only the
out-of-core pass over a shard store fans out.

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


def _check_in_process(workers: int) -> None:
    """Reject a worker count: streaming passes run in process."""
    if workers != 1:
        raise ValueError(
            f"streaming passes run in process (got workers={workers}); "
            "parallel embedding needs a ShardedCSR store"
        )


@dataclass(frozen=True)
class RefreshStats:
    """What a :meth:`StreamingEmbedder.refresh` call actually did."""

    mode: str  # "delta" or "full"
    degraded: bool  # True when a delta request fell back to a full pass
    dirty_users: int
    dirty_items: int
    rows_recomputed: int  # affected rows recomputed, summed over steps
    rows_total: int  # all rows across all steps and both sides

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
        Rows per task of the layer-wise passes; does not change the
        output.
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
        self, graph: BipartiteGraph, workers: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embed every vertex, caching all per-step matrices.

        The computation of ``model.embed_all(graph)`` with this
        embedder's ``sample_seed``, in process.  ``workers`` only
        accepts 1; it is kept for callers that still pass it.
        """
        _check_in_process(workers)
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
                        graph, h[-1], step, self.batch_size, get_pool(), self.sample_seed
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
            if inc is not None:
                graph = inc.graph  # the fold: a streaming.fold span
            mode, degraded, rows = self._refresh(graph, dirty_users, dirty_items)
        self.last_stats = RefreshStats(
            mode=mode,
            degraded=degraded,
            dirty_users=len(dirty_users),
            dirty_items=len(dirty_items),
            rows_recomputed=rows,
            rows_total=(graph.num_users + graph.num_items) * self.model.config.num_steps,
        )
        if inc is not None:
            inc.clear_dirty()
        counter_add("streaming.refreshes", 1)
        counter_add("streaming.rows_recomputed", self.last_stats.rows_recomputed)
        observe("streaming.recompute_fraction", self.last_stats.recompute_fraction)
        return self.embeddings

    def _refresh(
        self,
        graph: BipartiteGraph,
        dirty_users: np.ndarray,
        dirty_items: np.ndarray,
    ) -> tuple[str, bool, int]:
        """Update the cache; returns ``(mode, degraded, rows_recomputed)``."""
        nu, ni = graph.num_users, graph.num_items
        steps = self.model.config.num_steps
        rows_total = (nu + ni) * steps
        if self._h is None:
            # Cold start: nothing cached, a full pass is the refresh.
            self.full_embed(graph)
            return "full", False, rows_total
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
        # base = adjacency-dirty rows (affects every step >= 1);
        # aff_p = base ∪ aff_{p-1} ∪ neighbours(aff_{p-1} of other side).
        base_u = np.zeros(nu, dtype=bool)
        base_u[dirty_users] = True
        base_i = np.zeros(ni, dtype=bool)
        base_i[dirty_items] = True
        aff_u = np.arange(nu) >= old_nu  # step 0: only new feature rows
        aff_i = np.arange(ni) >= old_ni
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
        fraction = rows_recomputed / rows_total if rows_total else 0.0
        if fraction > self.degrade_threshold:
            counter_add("streaming.degradations", 1)
            self.full_embed(graph)
            return "full", True, rows_total

        # Delta pass: copy cached rows, recompute only the affected ones.
        # New rows (>= old_n) are marked affected at every step, so they
        # are always recomputed.
        h = [{side: self.model._features(graph, side) for side in _SIDES}]
        for step in range(1, steps + 1):
            rows = {side: np.flatnonzero(per_step[step - 1][side]) for side in _SIDES}
            h.append(
                self.model._layerwise_pass(
                    graph,
                    h[-1],
                    step,
                    self.batch_size,
                    get_pool(),
                    self.sample_seed,
                    rows=rows,
                    cached=self._h[step],
                )
            )
        self._h = h
        self._shape = (nu, ni)
        return "delta", False, rows_recomputed
