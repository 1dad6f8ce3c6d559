"""Incremental bipartite graph: a graph plus a pending delta.

:class:`~repro.graph.bipartite.BipartiteGraph` is immutable — its twin
CSR layout is what makes neighbour queries O(degree) — so streaming
updates are staged *next to* it: appended edges, vertices and feature
rows wait in a pending delta (O(delta) per append, no CSR rebuild).
Reading :attr:`IncrementalBipartiteGraph.graph` folds the pending delta
into a new graph, which replaces the old one; that fold is the only
compaction.  The fold merges the delta into the current CSR rows
(:meth:`BipartiteGraph._fold`): it costs a copy of the edge arrays plus
work on the delta and the rows it touches, never a sort of every edge.
Every sampler and embedder reads the folded graph, so the graph's CSR is
the one adjacency.

Every mutation records its endpoints in a **dirty-vertex frontier**
(:attr:`dirty_users` / :attr:`dirty_items`), which is exactly the seed
set :meth:`repro.streaming.StreamingEmbedder.refresh` propagates P hops
to find the embedding rows that need recomputation.  The frontier
survives folds and is cleared only by :meth:`clear_dirty` (i.e. by a
successful refresh).
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph, check_edges, check_features
from repro.obs import span
from repro.obs.metrics import counter_add

__all__ = ["IncrementalBipartiteGraph"]

_SIDES = ("user", "item")


class IncrementalBipartiteGraph:
    """A :class:`BipartiteGraph` plus a pending delta and a dirty frontier.

    Parameters
    ----------
    base:
        The starting graph.

    Semantics mirror the immutable constructor: re-adding an existing
    (user, item) edge *increases its weight* (duplicates merge by
    summing), and edge weights must be finite and positive.  The folded
    graph keeps the earlier edges in their order with new edges
    following in arrival order; a re-added edge is summed into its
    existing slot.  So folding after every delta or once after a chain
    of deltas gives the same graph.
    """

    def __init__(self, base: BipartiteGraph) -> None:
        self._graph = base
        self._pending_edges: list[np.ndarray] = []
        self._pending_weights: list[np.ndarray] = []
        self._pending_features: dict[str, list[np.ndarray]] = {s: [] for s in _SIDES}
        self._extra = dict.fromkeys(_SIDES, 0)
        self._dirty: dict[str, set[int]] = {s: set() for s in _SIDES}

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self._graph.num_users + self._extra["user"]

    @property
    def num_items(self) -> int:
        return self._graph.num_items + self._extra["item"]

    @property
    def pending_edges(self) -> int:
        """Appended edges not yet folded into the graph."""
        return sum(len(e) for e in self._pending_edges)

    @property
    def num_edges(self) -> int:
        """Deduplicated edge count (folds the pending delta)."""
        return self.graph.num_edges

    @property
    def dirty_users(self) -> np.ndarray:
        """Sorted user ids touched since the last :meth:`clear_dirty`."""
        return self._dirty_ids("user")

    @property
    def dirty_items(self) -> np.ndarray:
        """Sorted item ids touched since the last :meth:`clear_dirty`."""
        return self._dirty_ids("item")

    def _dirty_ids(self, side: str) -> np.ndarray:
        dirty = self._dirty[side]
        return np.fromiter(sorted(dirty), dtype=np.int64, count=len(dirty))

    @property
    def dirty_fraction(self) -> float:
        """Dirty vertices / all vertices — the degradation signal."""
        return (len(self._dirty["user"]) + len(self._dirty["item"])) / (
            self.num_users + self.num_items
        )

    def clear_dirty(self) -> None:
        """Reset the dirty frontier (call after a successful refresh)."""
        for dirty in self._dirty.values():
            dirty.clear()

    # ------------------------------------------------------------------
    # Mutation (O(delta) per call)
    # ------------------------------------------------------------------
    def add_edges(
        self, edges: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Append (user, item) edges; duplicates merge by weight sum."""
        edges, weights = check_edges(edges, weights, self.num_users, self.num_items)
        if not len(edges):
            return
        self._pending_edges.append(edges)
        self._pending_weights.append(weights)
        self._dirty["user"].update(edges[:, 0].tolist())
        self._dirty["item"].update(edges[:, 1].tolist())
        counter_add("streaming.edges_appended", len(edges))

    def add_users(
        self, count: int = 1, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Append ``count`` isolated users; returns their new ids."""
        return self._add_vertices("user", count, features)

    def add_items(
        self, count: int = 1, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Append ``count`` isolated items; returns their new ids."""
        return self._add_vertices("item", count, features)

    def _add_vertices(
        self, side: str, count: int, features: np.ndarray | None
    ) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        base_feats = (
            self._graph.user_features if side == "user" else self._graph.item_features
        )
        if base_feats is not None:
            if features is None:
                raise ValueError(
                    f"base graph has {side} features; new {side}s need feature rows"
                )
            features = check_features(features, count, side, base_feats.shape[1])
            self._pending_features[side].append(features)
        elif features is not None:
            raise ValueError(f"base graph has no {side} features to extend")
        start = self.num_users if side == "user" else self.num_items
        ids = np.arange(start, start + count, dtype=np.int64)
        self._extra[side] += count
        self._dirty[side].update(ids.tolist())
        counter_add(f"streaming.{side}s_appended", count)
        return ids

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The current graph as an immutable :class:`BipartiteGraph`.

        Folds a pending delta into a new graph first (a
        ``streaming.fold`` span, counted as ``streaming.compactions``);
        with nothing pending this is the graph the last fold (or the
        constructor) produced, not a copy.
        """
        if self._pending_edges or any(self._extra.values()):
            with span(
                "streaming.fold",
                pending_edges=self.pending_edges,
                new_users=self._extra["user"],
                new_items=self._extra["item"],
            ):
                self._graph = self._graph._fold(
                    self.num_users,
                    self.num_items,
                    np.concatenate([np.empty((0, 2), dtype=np.int64), *self._pending_edges]),
                    np.concatenate([np.empty(0), *self._pending_weights]),
                    self._extended_features("user"),
                    self._extended_features("item"),
                )
            self._pending_edges.clear()
            self._pending_weights.clear()
            for pending in self._pending_features.values():
                pending.clear()
            self._extra = dict.fromkeys(_SIDES, 0)
            counter_add("streaming.compactions", 1)
        return self._graph

    def _extended_features(self, side: str) -> np.ndarray | None:
        base = self._graph.user_features if side == "user" else self._graph.item_features
        pending = self._pending_features[side]
        if base is None or not pending:
            return base
        return np.concatenate([base] + pending)

    def __repr__(self) -> str:
        return (
            f"IncrementalBipartiteGraph(users={self.num_users}, "
            f"items={self.num_items}, pending_edges={self.pending_edges}, "
            f"dirty={len(self._dirty['user'])}u/{len(self._dirty['item'])}i)"
        )
