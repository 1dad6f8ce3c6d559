"""Neighbour and negative samplers over bipartite graphs.

:func:`sample_neighbors` is the fixed-fan-out draw GraphSAGE uses (K1,
K2 in the paper's complexity analysis, Section III-D): it turns given
uniforms into neighbour ids.  GraphSAGE training and serving both call
it with counter-hash uniforms (``repro.core.sage._draw``).  It reads a
neighbour source through two array queries, ``degrees(side)`` and
``gather_neighbors(side, vertices, offsets)``, which both an in-memory
:class:`BipartiteGraph` and an out-of-core
:class:`~repro.shard.storage.ShardedCSR` answer; the store keeps global
degrees and per-row neighbour order, so the same uniforms give the same
draws over a graph and its store.
``NeighborSampler`` draws neighbours in proportion to edge weight from
a ``Generator`` (HOP-Rec's weighted random walks).
``NegativeSampler`` draws the negatives of Eq. 5's ``P_n`` distribution
— uniform, or proportional to degree^0.75 as in word2vec.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.obs.metrics import counter_add
from repro.utils.rng import ensure_rng

__all__ = ["NeighborSampler", "NegativeSampler", "sample_edge_batches", "sample_neighbors"]


def sample_neighbors(source, side: str, vertices: np.ndarray, uniforms: np.ndarray):
    """``(len(vertices), fanout)`` neighbour ids: slot ``(r, s)`` takes
    position ``floor(uniforms[r, s] * degree)`` of ``vertices[r]``'s
    adjacency row, so a row reads only its own uniforms and row.
    Vertices with no neighbours get -1."""
    fanout = uniforms.shape[1]
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    counter_add("sampler.samples_drawn", len(vertices) * fanout)
    counter_add("sampler.batches", 1)
    degrees = source.degrees(side)[vertices]
    offsets = (uniforms * degrees[:, None]).astype(np.int64)
    picked = source.gather_neighbors(side, vertices, offsets)
    return np.where(degrees[:, None] > 0, picked, -1)


class NeighborSampler:
    """Draw fixed-size neighbour samples with replacement, in proportion
    to edge weight (importance sampling).

    Sampling is fully vectorised over the batch.  Sampling *with*
    replacement keeps the fan-out shape rectangular.  Vertices with no
    neighbours receive the placeholder index ``-1``.  ``graph`` is an
    in-memory :class:`BipartiteGraph`.
    """

    def __init__(self, graph: BipartiteGraph, rng: int | np.random.Generator | None = None) -> None:
        self.graph = graph
        self.rng = ensure_rng(rng)
        # Cumulative edge weights in CSR order: each row's CDF is a slice.
        self._user_cum = np.cumsum(graph._user_csr.weights)
        self._item_cum = np.cumsum(graph._item_csr.weights)

    def sample_items_for_users(self, users: np.ndarray, fanout: int) -> np.ndarray:
        """``(len(users), fanout)`` item ids; -1 marks isolated users."""
        return self._sample(users, fanout, side="user")

    def sample_users_for_items(self, items: np.ndarray, fanout: int) -> np.ndarray:
        """``(len(items), fanout)`` user ids; -1 marks isolated items."""
        return self._sample(items, fanout, side="item")

    def _sample(self, vertices: np.ndarray, fanout: int, side: str) -> np.ndarray:
        """Weighted draws via batched ``searchsorted`` (no per-row loop).

        One ``rng.random`` call covers every non-isolated row (the stream
        a per-row loop would consume, row by row), and one searchsorted
        over the global cumulative-weight array inverts all CDFs at
        once.  Per-row positions follow by subtracting the row offsets.
        """
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        vertices = np.asarray(vertices, dtype=np.int64)
        counter_add("sampler.samples_drawn", len(vertices) * fanout)
        counter_add("sampler.batches", 1)
        csr = self.graph._user_csr if side == "user" else self.graph._item_csr
        cum = self._user_cum if side == "user" else self._item_cum
        starts = csr.indptr[vertices]
        degrees = csr.indptr[vertices + 1] - starts
        out = np.full((len(vertices), fanout), -1, dtype=np.int64)
        active = np.flatnonzero(degrees > 0)
        if len(active) == 0:
            return out
        a_starts = starts[active]
        a_degrees = degrees[active]
        base = np.where(a_starts > 0, cum[a_starts - 1], 0.0)
        totals = cum[a_starts + a_degrees - 1] - base
        draws = self.rng.random((len(active), fanout)) * totals[:, None]
        picks = np.searchsorted(cum, base[:, None] + draws, side="right") - a_starts[:, None]
        picks = np.clip(picks, 0, (a_degrees - 1)[:, None])
        out[active] = csr.indices[a_starts[:, None] + picks]
        return out


class NegativeSampler:
    """Sample negative users/items for the unsupervised loss (Eq. 5).

    ``distribution`` is ``"uniform"`` or ``"degree"`` (propto deg^0.75,
    with +1 smoothing so isolated vertices remain reachable).
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        distribution: str = "degree",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if distribution not in {"uniform", "degree"}:
            raise ValueError(f"unknown distribution {distribution!r}")
        self.graph = graph
        self.distribution = distribution
        self.rng = ensure_rng(rng)
        if distribution == "degree":
            u_w = (graph.user_degrees() + 1.0) ** 0.75
            i_w = (graph.item_degrees() + 1.0) ** 0.75
            self._user_probs = u_w / u_w.sum()
            self._item_probs = i_w / i_w.sum()
        else:
            self._user_probs = None
            self._item_probs = None

    def sample_users(self, size: int) -> np.ndarray:
        """Draw ``size`` negative user ids from P_n(u)."""
        counter_add("sampler.negatives_drawn", size)
        return self.rng.choice(
            self.graph.num_users, size=size, replace=True, p=self._user_probs
        )

    def sample_items(self, size: int) -> np.ndarray:
        """Draw ``size`` negative item ids from P_n(i)."""
        counter_add("sampler.negatives_drawn", size)
        return self.rng.choice(
            self.graph.num_items, size=size, replace=True, p=self._item_probs
        )


def sample_edge_batches(
    graph: BipartiteGraph,
    batch_size: int,
    rng: int | np.random.Generator | None = None,
    shuffle: bool = True,
):
    """Yield ``(users, items, weights)`` mini-batches covering every edge.

    Edges are visited exactly once per epoch in a shuffled order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = ensure_rng(rng)
    order = np.arange(graph.num_edges)
    if shuffle:
        rng.shuffle(order)
    edges = graph.edges
    weights = graph.edge_weights
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        yield edges[batch, 0], edges[batch, 1], weights[batch]
