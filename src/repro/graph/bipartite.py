"""The bipartite graph data structure (Section III-A).

A user–item (or query–item) graph is the quadruple G = (U, I, E, S):
two disjoint vertex sets, weighted edges only *between* the sides, and
a weight function S.  The structure is stored in CSR form twice — once
from the user side, once from the item side — so neighbour queries are
O(degree) in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BipartiteGraph", "check_edges", "check_features", "slice_positions"]


def _edge_keys(edges: np.ndarray, num_users: int, num_items: int) -> np.ndarray:
    """One int64 ``user * num_items + item`` per edge, ordered like the pairs."""
    if num_users * num_items > np.iinfo(np.int64).max:
        raise OverflowError(f"{num_users} x {num_items} pairs overflow int64 edge keys")
    return edges[:, 0] * num_items + edges[:, 1]


def check_edges(
    edges: np.ndarray, weights: np.ndarray | None, num_users: int, num_items: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(edges, weights)`` as ``(n, 2)`` int64 pairs and float64 weights.

    Rejects edges that are not an ``(n, 2)`` array of integer ids (an
    empty array means no edges), ids outside ``[0, num_users) x
    [0, num_items)``, weights that do not align one-to-one with the
    edges, and weights that are not finite and positive.
    ``weights=None`` means every weight is 1.
    """
    edges = np.asarray(edges)
    if edges.size == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    elif edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):
        raise ValueError(
            f"edges must be an (n, 2) array of integer ids, got {edges.dtype} {edges.shape}"
        )
    edges = edges.astype(np.int64, copy=False)
    if weights is None:
        weights = np.ones(len(edges), dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(edges),):
            raise ValueError("weights must align one-to-one with edges")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError(
                "edge weights (connection strengths) must be finite and positive"
            )
    if len(edges):
        if edges[:, 0].min() < 0 or edges[:, 0].max() >= num_users:
            raise ValueError("user index out of range")
        if edges[:, 1].min() < 0 or edges[:, 1].max() >= num_items:
            raise ValueError("item index out of range")
    return edges, weights


def check_features(features, rows: int, side: str, dim: int | None = None):
    """``features`` as a finite float64 ``(rows, dim)`` matrix (any width
    when ``dim`` is None); rows are taken as given, never repacked.
    ``None`` (no features) passes through."""
    if features is None:
        return None
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != rows or dim not in (None, features.shape[1]):
        want = f"({rows}, {'d' if dim is None else dim})"
        raise ValueError(
            f"{side} features must have shape (rows, dim) = {want}, got {features.shape}"
        )
    if not np.isfinite(features).all():
        raise ValueError(f"{side} features must be finite")
    return features


def slice_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat gather index for variable-length slices ``[s, s+len)``.

    ``concatenate([arange(s, s+l) for s, l in zip(starts, lengths)])``
    without the python loop: the index of a run of CSR rows.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    resets = np.concatenate(([0], ends[:-1]))
    return (
        np.arange(total, dtype=np.int64)
        + np.repeat(np.asarray(starts, dtype=np.int64) - resets, lengths)
    )


@dataclass(frozen=True)
class _CSR:
    """One direction of adjacency in compressed sparse row form."""

    indptr: np.ndarray  # (n_rows + 1,)
    indices: np.ndarray  # (n_edges,) column ids
    weights: np.ndarray  # (n_edges,)
    degrees: np.ndarray  # (n_rows,) read-only

    def neighbors(self, row: int) -> np.ndarray:
        return self.indices[self.indptr[row] : self.indptr[row + 1]]

    def neighbor_weights(self, row: int) -> np.ndarray:
        return self.weights[self.indptr[row] : self.indptr[row + 1]]

    def degree(self, row: int) -> int:
        return int(self.indptr[row + 1] - self.indptr[row])

    def gather(self, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Column ids at per-row ``offsets`` (``(len(rows), fanout)``)
        into each row.  Positions past the last edge are clamped, so rows
        of degree 0 give garbage (-1 when there are no edges at all)."""
        if len(self.indices) == 0:
            return np.full(offsets.shape, -1, dtype=np.int64)
        starts = self.indptr[np.asarray(rows, dtype=np.int64)]
        return self.indices[np.minimum(starts[:, None] + offsets, len(self.indices) - 1)]

    def grown(
        self, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, n_rows: int
    ) -> "_CSR":
        """This CSR over ``n_rows`` rows with the ``(rows, cols, weights)``
        edges appended to the ends of their rows, in the given order.

        The new edges are sorted stably by row first: rows with only empty
        rows between them share one insert position, where ``np.insert``
        keeps the order it is given.
        """
        order = np.argsort(rows, kind="stable")
        ends = self.indptr[np.minimum(rows[order] + 1, len(self.degrees))]
        counts = np.bincount(rows, minlength=n_rows)
        counts[: len(self.degrees)] += self.degrees
        return _CSR.assemble(
            counts,
            np.insert(self.indices, ends, cols[order]),
            np.insert(self.weights, ends, weights[order]),
        )

    @staticmethod
    def assemble(counts: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> "_CSR":
        """The CSR of row-sorted ``indices`` and ``weights`` with ``counts``
        edges per row; ``counts`` becomes the read-only degrees."""
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        counts.flags.writeable = False
        return _CSR(indptr, indices, weights, counts)

    def slots(self, rows: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
        """Position of each ``(rows[k], cols[k])`` edge, -1 where there is
        none; reads only those rows (ids past the last row have none)."""
        touched = np.unique(rows[rows < len(self.degrees)])
        positions = slice_positions(self.indptr[touched], self.degrees[touched])
        have = np.repeat(touched, self.degrees[touched]) * n_cols + self.indices[positions]
        return _locate(have, positions, rows * n_cols + cols)


def _locate(have: np.ndarray, where: np.ndarray, want: np.ndarray) -> np.ndarray:
    """``where[j]`` for each ``want`` key equal to ``have[j]``, else -1
    (the keys of each array are unique)."""
    _, hi, wi = np.intersect1d(have, want, assume_unique=True, return_indices=True)
    found = np.full(len(want), -1, dtype=np.int64)
    found[wi] = where[hi]
    return found



class BipartiteGraph:
    """A weighted bipartite graph over ``num_users`` x ``num_items``.

    Parameters
    ----------
    num_users, num_items:
        Vertex counts of each side.  For the taxonomy task the "user"
        side holds queries; the structure is identical.
    edges:
        ``(n_edges, 2)`` integer array of (user, item) pairs.  Duplicate
        pairs are merged with weights summed.
    weights:
        Per-edge positive connection strengths ``S(e)``; defaults to 1.
    user_features, item_features:
        Optional dense feature matrices ``X_u`` (num_users x d_u) and
        ``X_i`` (num_items x d_i).
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        edges: np.ndarray,
        weights: np.ndarray | None = None,
        user_features: np.ndarray | None = None,
        item_features: np.ndarray | None = None,
    ) -> None:
        if num_users <= 0 or num_items <= 0:
            raise ValueError("both vertex sets must be non-empty")
        edges, weights = check_edges(edges, weights, num_users, num_items)

        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self._edges, self._weights = self._merge_duplicates(
            edges, weights, self.num_users, self.num_items
        )
        self._user_csr = self._build_csr(
            self._edges[:, 0], self._edges[:, 1], self._weights, self.num_users
        )
        self._item_csr = self._build_csr(
            self._edges[:, 1], self._edges[:, 0], self._weights, self.num_items
        )
        self.user_features = check_features(user_features, num_users, "user")
        self.item_features = check_features(item_features, num_items, "item")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_duplicates(
        edges: np.ndarray, weights: np.ndarray, num_users: int, num_items: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Edges unchanged when unique, else sorted unique pairs with summed weights."""
        if not len(edges):
            return edges, weights
        unique, inverse = np.unique(
            _edge_keys(edges, num_users, num_items), return_inverse=True
        )
        if len(unique) == len(edges):
            return edges, weights
        merged = np.bincount(inverse, weights=weights, minlength=len(unique))
        return np.stack(np.divmod(unique, num_items), axis=1), merged

    @staticmethod
    def _build_csr(
        rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, n_rows: int
    ) -> _CSR:
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=n_rows)
        return _CSR.assemble(counts, cols[order], weights[order])

    def _fold(
        self,
        num_users: int,
        num_items: int,
        edges: np.ndarray,
        weights: np.ndarray,
        user_features: np.ndarray | None,
        item_features: np.ndarray | None,
    ) -> "BipartiteGraph":
        """This graph grown to ``num_users x num_items`` plus ``edges``.

        The bytes the constructor gives for this graph's edge list followed
        by ``edges`` in arrival order with every re-added pair summed into
        its first slot, ``(w + a) + b``: new pairs go to the ends of the
        edge list and of their CSR rows, and only the rows the delta
        touches are read.  Finding a re-added pair's edge-list slot takes
        one linear pass, and only when there is one.  Old rows keep their
        order, so a row the delta did not touch keeps its neighbour draws.
        The feature matrices are the grown ones, their new rows already
        checked.
        """
        edges, weights = check_edges(edges, weights, num_users, num_items)
        keys = _edge_keys(edges, num_users, num_items)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        arrival = np.argsort(first)  # the unique pairs in order of first arrival
        pairs, keys = edges[first[arrival]], keys[first[arrival]]
        slots = self._user_csr.slots(pairs[:, 0], pairs[:, 1], num_items)
        again, new = np.flatnonzero(slots >= 0), slots < 0
        # An old weight first, then the arrivals in order, as the constructor sums.
        summed = np.bincount(
            np.concatenate([again, np.argsort(arrival)[inverse]]),
            weights=np.concatenate([self._user_csr.weights[slots[again]], weights]),
            minlength=len(pairs),
        )
        graph = object.__new__(BipartiteGraph)
        graph.num_users, graph.num_items = int(num_users), int(num_items)
        graph.user_features, graph.item_features = user_features, item_features
        graph._edges = np.concatenate([self._edges, pairs[new]])
        graph._weights = np.concatenate([self._weights, summed[new]])
        graph._user_csr = self._user_csr.grown(pairs[new, 0], pairs[new, 1], summed[new], num_users)
        graph._item_csr = self._item_csr.grown(pairs[new, 1], pairs[new, 0], summed[new], num_items)
        if len(again):  # re-added pairs: their sums go into their old slots
            near = np.zeros(self.num_users, dtype=bool)
            near[pairs[again, 0]] = True
            near = np.flatnonzero(near[self._edges[:, 0]])  # the one linear pass
            have = _edge_keys(self._edges[near], num_users, num_items)
            graph._weights[_locate(have, near, keys[again])] = summed[again]
            for csr, rows, cols, n_cols in (
                (graph._user_csr, pairs[again, 0], pairs[again, 1], num_items),
                (graph._item_csr, pairs[again, 1], pairs[again, 0], num_users),
            ):
                csr.weights[csr.slots(rows, cols, n_cols)] = summed[again]
        return graph

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> np.ndarray:
        """``(n_edges, 2)`` array of (user, item) pairs (deduplicated)."""
        return self._edges

    @property
    def edge_weights(self) -> np.ndarray:
        return self._weights

    @property
    def total_weight(self) -> float:
        """Sum of all connection strengths (conserved by coarsening)."""
        return float(self._weights.sum())

    @property
    def density(self) -> float:
        """|E| / (|U| * |I|), as reported in the paper's Tables I and V."""
        return self.num_edges / (self.num_users * self.num_items)

    def item_neighbors(self, user: int) -> np.ndarray:
        """Items adjacent to ``user`` — N(u) of Eq. 1."""
        return self._user_csr.neighbors(user)

    def user_neighbors(self, item: int) -> np.ndarray:
        """Users adjacent to ``item`` — N(i) of Eq. 2."""
        return self._item_csr.neighbors(item)

    def item_neighbor_weights(self, user: int) -> np.ndarray:
        return self._user_csr.neighbor_weights(user)

    def user_neighbor_weights(self, item: int) -> np.ndarray:
        return self._item_csr.neighbor_weights(item)

    def user_degree(self, user: int) -> int:
        return self._user_csr.degree(user)

    def item_degree(self, item: int) -> int:
        return self._item_csr.degree(item)

    def user_degrees(self) -> np.ndarray:
        return self._user_csr.degrees

    def item_degrees(self) -> np.ndarray:
        return self._item_csr.degrees

    # ------------------------------------------------------------------
    # Array adjacency queries (shared with ShardedCSR)
    # ------------------------------------------------------------------
    def _csr(self, side: str) -> _CSR:
        if side == "user":
            return self._user_csr
        if side == "item":
            return self._item_csr
        raise ValueError(f"side must be 'user' or 'item', got {side!r}")

    def degrees(self, side: str) -> np.ndarray:
        """Degree of every ``side`` vertex (read-only, computed once)."""
        return self._csr(side).degrees

    def gather_neighbors(
        self, side: str, vertices: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Neighbour ids at per-row ``offsets`` into each vertex's row.

        ``offsets`` is ``(len(vertices), fanout)``.  Positions past the
        last edge are clamped, so rows of degree 0 return garbage (-1 on
        an edgeless side); callers mask them with :meth:`degrees`.
        """
        return self._csr(side).gather(vertices, offsets)

    def adjacent(self, side: str, vertices: np.ndarray) -> np.ndarray:
        """Neighbours of every ``side`` vertex in ``vertices``, rows
        concatenated in order (ids of the other side, repeats kept)."""
        csr = self._csr(side)
        vertices = np.asarray(vertices, dtype=np.int64)
        return csr.indices[slice_positions(csr.indptr[vertices], csr.degrees[vertices])]

    def has_edge(self, user: int, item: int) -> bool:
        return item in self.item_neighbors(user)

    def edge_weight(self, user: int, item: int) -> float:
        """S((u, i)); 0.0 when the edge does not exist."""
        neigh = self.item_neighbors(user)
        mask = neigh == item
        if not mask.any():
            return 0.0
        return float(self.item_neighbor_weights(user)[mask][0])

    def edge_set(self) -> set[tuple[int, int]]:
        """All edges as python tuples (test/diagnostic helper)."""
        return {(int(u), int(i)) for u, i in self._edges}

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def with_features(
        self,
        user_features: np.ndarray | None = None,
        item_features: np.ndarray | None = None,
    ) -> "BipartiteGraph":
        """A copy of this graph with the given feature matrices attached."""
        return BipartiteGraph(
            self.num_users,
            self.num_items,
            self._edges,
            self._weights,
            user_features if user_features is not None else self.user_features,
            item_features if item_features is not None else self.item_features,
        )

    def subgraph_by_edges(self, edge_mask: np.ndarray) -> "BipartiteGraph":
        """Graph with only the edges selected by the boolean ``edge_mask``.

        Vertex sets (and features) are preserved so ids stay aligned.
        """
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (self.num_edges,):
            raise ValueError("edge_mask must have one entry per edge")
        return BipartiteGraph(
            self.num_users,
            self.num_items,
            self._edges[edge_mask],
            self._weights[edge_mask],
            self.user_features,
            self.item_features,
        )

    # ------------------------------------------------------------------
    # Sharded storage interop
    # ------------------------------------------------------------------
    def to_sharded(self, path):
        """Write this graph's two CSRs and features into a new
        :class:`~repro.shard.storage.ShardedCSR` directory; returns the
        owner store handle.  Per-row neighbour order is kept, so draws
        over the store are this graph's, bit for bit."""
        from repro.shard.storage import ShardedCSR

        return ShardedCSR.from_graph(self, path)

    @staticmethod
    def from_sharded(path) -> "BipartiteGraph":
        """Load a shard directory back into an in-memory graph.

        Edges come back in canonical user-major order with per-user
        neighbour order preserved; intended for graphs that fit in RAM
        (round-trip tests, small-scale verification).
        """
        from repro.shard.storage import ShardedCSR

        with ShardedCSR.open(path) as store:
            return store.to_graph()

    def adjacency_matrix(self) -> np.ndarray:
        """Dense (num_users, num_items) weight matrix — small graphs only."""
        if self.num_users * self.num_items > 50_000_000:
            raise MemoryError("graph too large for a dense adjacency matrix")
        mat = np.zeros((self.num_users, self.num_items))
        mat[self._edges[:, 0], self._edges[:, 1]] = self._weights
        return mat

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(users={self.num_users}, items={self.num_items}, "
            f"edges={self.num_edges}, density={self.density:.3e})"
        )
