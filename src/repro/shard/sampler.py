"""Neighbour sampling over a :class:`~repro.shard.storage.ShardedCSR`.

A drop-in mirror of the dense unweighted
:class:`~repro.graph.sampling.NeighborSampler`: given the same RNG state
and the same query it consumes the identical draws and returns the
identical samples, because the store preserves global degrees and
per-row neighbour order.  The layer-wise engine hands each chunk's
sampler that chunk's content-addressed RNG, so the sharded
``embed_all`` path stays bitwise-equal to the dense one wherever the
chunk runs.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import counter_add
from repro.shard.storage import ShardedCSR
from repro.utils.rng import ensure_rng

__all__ = ["ShardedNeighborSampler"]


class ShardedNeighborSampler:
    """Fixed-fan-out sampling with replacement over shard blocks.

    Only the unweighted scheme is implemented — it is the one the SAGE
    inference path uses; weighted importance sampling stays a dense-graph
    feature for now.
    """

    def __init__(
        self, store: ShardedCSR, rng: int | np.random.Generator | None = None
    ) -> None:
        self.store = store
        self.rng = ensure_rng(rng)

    def sample_items_for_users(self, users: np.ndarray, fanout: int) -> np.ndarray:
        """``(len(users), fanout)`` item ids; -1 marks isolated users."""
        return self._sample(users, fanout, side="user")

    def sample_users_for_items(self, items: np.ndarray, fanout: int) -> np.ndarray:
        """``(len(items), fanout)`` user ids; -1 marks isolated items."""
        return self._sample(items, fanout, side="item")

    def _sample(self, vertices: np.ndarray, fanout: int, side: str) -> np.ndarray:
        # Mirrors NeighborSampler._sample step for step (counters, the
        # pre-draw empty-graph early-out, the single uniform draw, the
        # clipped gather) so the RNG stream advances identically.
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        vertices = np.asarray(vertices, dtype=np.int64)
        counter_add("sampler.samples_drawn", len(vertices) * fanout)
        counter_add("sampler.batches", 1)
        degrees = self.store.degrees(side)[vertices]
        if self.store.num_edges == 0:
            return np.full((len(vertices), fanout), -1, dtype=np.int64)
        offsets = (
            self.rng.random((len(vertices), fanout)) * degrees[:, None]
        ).astype(np.int64)
        picked = self.store.gather_neighbors(side, vertices, offsets)
        return np.where(degrees[:, None] > 0, picked, -1)
