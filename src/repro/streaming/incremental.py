"""Incremental bipartite graph: O(delta) appends over a frozen CSR.

:class:`~repro.graph.bipartite.BipartiteGraph` is immutable — its twin
CSR layout is what makes neighbour queries O(degree) — so streaming
updates are staged *next to* it: appended edges and vertices land in
per-side overlay buffers (O(delta) per append, no CSR rebuild), and
neighbour queries concatenate the frozen CSR row with the overlay row.
Periodic **compaction** folds the overlay into a fresh CSR once it grows
past a configurable fraction of the base graph, amortising the rebuild
over many appends.

Every mutation records its endpoints in a **dirty-vertex frontier**
(:attr:`dirty_users` / :attr:`dirty_items`), which is exactly the seed
set :meth:`repro.streaming.StreamingEmbedder.refresh` propagates P hops
to find the embedding rows that need recomputation.  The frontier
survives compaction and is cleared only by :meth:`clear_dirty` (i.e. by
a successful refresh).
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph, _edge_keys
from repro.obs.metrics import counter_add

__all__ = ["IncrementalBipartiteGraph"]


class IncrementalBipartiteGraph:
    """A :class:`BipartiteGraph` plus an O(delta) mutation overlay.

    Parameters
    ----------
    base:
        The frozen starting graph.
    compact_threshold:
        Auto-compact when pending edges exceed this fraction of the base
        graph's edge count (``None`` disables auto-compaction; call
        :meth:`compact` manually).

    Semantics mirror the immutable constructor: re-adding an existing
    (user, item) edge *increases its weight* (duplicates merge by
    summing), and edge weights must be positive.  The materialised graph
    keeps the base edges in their order with new edges following in
    arrival order; a re-added edge is summed into its existing slot.
    """

    def __init__(
        self,
        base: BipartiteGraph,
        compact_threshold: float | None = 0.25,
    ) -> None:
        if compact_threshold is not None and compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive (or None)")
        self._base = base
        self.compact_threshold = compact_threshold
        self.compactions = 0
        # Overlay state: appended edges as (user, item, weight) column
        # buffers plus per-row adjacency for O(degree + delta) queries.
        self._pending_edges: list[np.ndarray] = []
        self._pending_weights: list[np.ndarray] = []
        self._pending_user_adj: dict[int, list[tuple[int, float]]] = {}
        self._pending_item_adj: dict[int, list[tuple[int, float]]] = {}
        self._pending_user_features: list[np.ndarray] = []
        self._pending_item_features: list[np.ndarray] = []
        self._extra_users = 0
        self._extra_items = 0
        self._pending_edge_count = 0
        self._dirty_users: set[int] = set()
        self._dirty_items: set[int] = set()
        self._materialised: BipartiteGraph | None = base

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self._base.num_users + self._extra_users

    @property
    def num_items(self) -> int:
        return self._base.num_items + self._extra_items

    @property
    def pending_edges(self) -> int:
        """Appended edges not yet folded into the base CSR."""
        return self._pending_edge_count

    @property
    def num_edges(self) -> int:
        """Deduplicated edge count (materialises the overlay if pending)."""
        return self.graph.num_edges

    @property
    def dirty_users(self) -> np.ndarray:
        """Sorted user ids touched since the last :meth:`clear_dirty`."""
        return np.fromiter(sorted(self._dirty_users), dtype=np.int64, count=len(self._dirty_users))

    @property
    def dirty_items(self) -> np.ndarray:
        """Sorted item ids touched since the last :meth:`clear_dirty`."""
        return np.fromiter(sorted(self._dirty_items), dtype=np.int64, count=len(self._dirty_items))

    @property
    def dirty_fraction(self) -> float:
        """Dirty vertices / all vertices — the degradation signal."""
        return (len(self._dirty_users) + len(self._dirty_items)) / (
            self.num_users + self.num_items
        )

    def clear_dirty(self) -> None:
        """Reset the dirty frontier (call after a successful refresh)."""
        self._dirty_users.clear()
        self._dirty_items.clear()

    # ------------------------------------------------------------------
    # Mutation (O(delta) per call)
    # ------------------------------------------------------------------
    def add_edges(
        self, edges: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Append (user, item) edges; duplicates merge by weight sum."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            weights = np.ones(len(edges), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(edges),):
                raise ValueError("weights must align one-to-one with edges")
            if len(weights) and weights.min() <= 0:
                raise ValueError("edge weights must be positive")
        if not len(edges):
            return
        if edges[:, 0].min() < 0 or edges[:, 0].max() >= self.num_users:
            raise ValueError("user index out of range")
        if edges[:, 1].min() < 0 or edges[:, 1].max() >= self.num_items:
            raise ValueError("item index out of range")
        self._pending_edges.append(edges)
        self._pending_weights.append(weights)
        self._pending_edge_count += len(edges)
        for (u, i), w in zip(edges, weights):
            u, i, w = int(u), int(i), float(w)
            self._pending_user_adj.setdefault(u, []).append((i, w))
            self._pending_item_adj.setdefault(i, []).append((u, w))
        self._dirty_users.update(int(u) for u in edges[:, 0])
        self._dirty_items.update(int(i) for i in edges[:, 1])
        self._materialised = None
        counter_add("streaming.edges_appended", len(edges))
        self._maybe_compact()

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
            self._base.user_features if side == "user" else self._base.item_features
        )
        if base_feats is not None:
            if features is None:
                raise ValueError(
                    f"base graph has {side} features; new {side}s need feature rows"
                )
            features = np.asarray(features, dtype=np.float64).reshape(count, -1)
            if features.shape[1] != base_feats.shape[1]:
                raise ValueError(
                    f"{side} features must have dim {base_feats.shape[1]}, "
                    f"got {features.shape[1]}"
                )
        elif features is not None:
            raise ValueError(f"base graph has no {side} features to extend")
        start = self.num_users if side == "user" else self.num_items
        ids = np.arange(start, start + count, dtype=np.int64)
        if side == "user":
            self._extra_users += count
            if features is not None:
                self._pending_user_features.append(features)
            self._dirty_users.update(int(v) for v in ids)
        else:
            self._extra_items += count
            if features is not None:
                self._pending_item_features.append(features)
            self._dirty_items.update(int(v) for v in ids)
        self._materialised = None
        counter_add(f"streaming.{side}s_appended", count)
        return ids

    # ------------------------------------------------------------------
    # Overlay queries (O(degree + per-row delta))
    # ------------------------------------------------------------------
    def item_neighbors(self, user: int) -> np.ndarray:
        """Items adjacent to ``user``: frozen CSR row + overlay appends."""
        pending = self._pending_user_adj.get(int(user))
        base = (
            self._base.item_neighbors(user)
            if user < self._base.num_users
            else np.empty(0, dtype=np.int64)
        )
        if not pending:
            return base
        return np.concatenate([base, np.array([i for i, _ in pending], dtype=np.int64)])

    def user_neighbors(self, item: int) -> np.ndarray:
        """Users adjacent to ``item``: frozen CSR row + overlay appends."""
        pending = self._pending_item_adj.get(int(item))
        base = (
            self._base.user_neighbors(item)
            if item < self._base.num_items
            else np.empty(0, dtype=np.int64)
        )
        if not pending:
            return base
        return np.concatenate([base, np.array([u for u, _ in pending], dtype=np.int64)])

    def user_degree(self, user: int) -> int:
        base = self._base.user_degree(user) if user < self._base.num_users else 0
        return base + len(self._pending_user_adj.get(int(user), ()))

    def item_degree(self, item: int) -> int:
        base = self._base.item_degree(item) if item < self._base.num_items else 0
        return base + len(self._pending_item_adj.get(int(item), ()))

    # ------------------------------------------------------------------
    # Materialisation and compaction
    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The current graph as an immutable :class:`BipartiteGraph`.

        Cached between mutations; when the overlay is empty this *is*
        the base graph (no copy).  Samplers and embedders consume this
        view — the refresh path builds it once per refresh, so the
        rebuild cost is amortised exactly like compaction.
        """
        if self._materialised is None:
            self._materialised = self._materialise()
        return self._materialised

    def _materialise(self) -> BipartiteGraph:
        base = self._base
        edges, weights = base.edges, base.edge_weights
        if self._pending_edge_count:
            edges, weights = self._merge_in_arrival_order(
                np.concatenate([edges] + self._pending_edges),
                np.concatenate([weights] + self._pending_weights),
            )
        return BipartiteGraph(
            self.num_users,
            self.num_items,
            edges,
            weights,
            self._extended_features("user"),
            self._extended_features("item"),
        )

    def _merge_in_arrival_order(
        self, edges: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sum re-added edges into their first slot, keeping arrival order.

        Handing duplicates to the constructor would re-sort every edge,
        reordering CSR rows the delta never touched (and with them the
        neighbour draws of rows a refresh treats as unchanged).
        """
        keys = _edge_keys(edges, self.num_users, self.num_items)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        if len(first) == len(edges):
            return edges, weights
        summed = np.bincount(inverse, weights=weights, minlength=len(first))
        order = np.argsort(first)
        return edges[first[order]], summed[order]

    def _extended_features(self, side: str) -> np.ndarray | None:
        base = self._base.user_features if side == "user" else self._base.item_features
        if base is None:
            return None
        pending = (
            self._pending_user_features
            if side == "user"
            else self._pending_item_features
        )
        if not pending:
            return base
        return np.concatenate([base] + pending)

    def compact(self) -> BipartiteGraph:
        """Fold the overlay into a fresh base CSR; returns the new base.

        The dirty frontier is *not* cleared — compaction changes the
        storage layout, not which embedding rows are stale.
        """
        if self._pending_edge_count or self._extra_users or self._extra_items:
            self._base = self.graph  # materialises (and caches) first
            self._pending_edges.clear()
            self._pending_weights.clear()
            self._pending_user_adj.clear()
            self._pending_item_adj.clear()
            self._pending_user_features.clear()
            self._pending_item_features.clear()
            self._extra_users = 0
            self._extra_items = 0
            self._pending_edge_count = 0
            self.compactions += 1
            counter_add("streaming.compactions", 1)
        return self._base

    def _maybe_compact(self) -> None:
        if self.compact_threshold is None:
            return
        if self._pending_edge_count > self.compact_threshold * max(
            self._base.num_edges, 1
        ):
            self.compact()

    def __repr__(self) -> str:
        return (
            f"IncrementalBipartiteGraph(users={self.num_users}, "
            f"items={self.num_items}, pending_edges={self.pending_edges}, "
            f"dirty={len(self._dirty_users)}u/{len(self._dirty_items)}i, "
            f"compactions={self.compactions})"
        )
