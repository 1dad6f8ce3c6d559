"""Micro-batched serving frontend over streaming embeddings.

:class:`ServingFrontend` is the request-side of the streaming stack: it
owns an :class:`IncrementalBipartiteGraph` (edges keep arriving), a
:class:`StreamingEmbedder` (embeddings follow via delta refresh), and a
bounded LRU slate cache.  Requests are served in **micro-batches** — one
``Z_u[batch] @ Z_cand.T`` matmul scores a whole batch of cache-missing
users at once — with per-request latency (amortised over the batch for
misses) recorded in the ``serving.latency_ms`` histogram, so the load
bench reads p50/p99 straight from :mod:`repro.obs`.

Cold-start admission: a user added since the last refresh has no
embedding row yet; those requests are admitted through the ``fallback``
recommender (the taxonomy recommender in the load bench) instead of
being dropped, until the next refresh embeds them.

Graceful degradation: when the graph's dirty fraction exceeds
``refresh_dirty_threshold`` the frontend refreshes before serving, and
the embedder itself degrades a too-large delta to a full recompute — so
a flood of updates costs one full pass, never a wrong slate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.streaming.incremental import IncrementalBipartiteGraph
from repro.streaming.lru import LRUCache
from repro.streaming.refresh import RefreshStats, StreamingEmbedder, _check_in_process

__all__ = ["ServingFrontend"]


class ServingFrontend:
    """Serve top-k slates from continuously refreshed embeddings.

    Parameters
    ----------
    graph:
        The serving graph; a plain :class:`BipartiteGraph` is wrapped in
        an :class:`IncrementalBipartiteGraph` automatically.
    embedder:
        The delta-refresh embedder (its model scores via inner product
        of the final-step user/item embeddings).
    candidate_items:
        Fixed candidate pool to rank.  ``None`` ranks every item in the
        graph (the pool grows as items are ingested and refreshed).
    fallback:
        Cold-start recommender (anything with the
        :class:`~repro.serving.environment.Recommender` interface) for
        users with no embedding row yet.  ``None`` serves cold users an
        empty slate.
    cache_size:
        Bound of the LRU slate cache (0 disables caching).
    microbatch:
        Maximum number of cache-missing requests scored per matmul.
    refresh_dirty_threshold:
        When set, :meth:`serve` refreshes first whenever the graph's
        dirty fraction exceeds this value.
    """

    def __init__(
        self,
        graph: BipartiteGraph | IncrementalBipartiteGraph,
        embedder: StreamingEmbedder,
        candidate_items: np.ndarray | None = None,
        fallback=None,
        cache_size: int = 4096,
        microbatch: int = 256,
        refresh_dirty_threshold: float | None = None,
    ) -> None:
        if microbatch < 1:
            raise ValueError("microbatch must be >= 1")
        if not isinstance(graph, IncrementalBipartiteGraph):
            graph = IncrementalBipartiteGraph(graph)
        self.graph = graph
        self.embedder = embedder
        self.fallback = fallback
        self.microbatch = int(microbatch)
        self.refresh_dirty_threshold = refresh_dirty_threshold
        self._fixed_candidates = (
            np.asarray(candidate_items, dtype=np.int64)
            if candidate_items is not None
            else None
        )
        # user -> (k, slate); a cached slate serves any request with a
        # smaller or equal k (prefix of the same ranking).
        self._slates = LRUCache(cache_size, metric_prefix="serving.slate")
        self._z_user: np.ndarray | None = None
        self._candidates: np.ndarray | None = None
        self._z_cand: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Embedding lifecycle
    # ------------------------------------------------------------------
    def warm(self, workers: int = 1) -> None:
        """Full embedding pass, in process; must run once before serving.

        ``workers`` only accepts 1; it is kept for callers that still
        pass it.
        """
        self.embedder.full_embed(self.graph.graph, workers=workers)
        self.graph.clear_dirty()
        self._adopt_embeddings()

    def refresh(self, workers: int = 1) -> RefreshStats:
        """Delta-refresh embeddings, in process, and invalidate stale slates.

        Any recomputed row can reorder any slate (scores are inner
        products against the candidate matrix), so the slate cache is
        cleared whenever the refresh changed anything.  ``workers`` only
        accepts 1, as in :meth:`warm`.
        """
        _check_in_process(workers)
        self.embedder.refresh(self.graph)
        stats = self.embedder.last_stats
        if stats.rows_recomputed:
            self._slates.clear()
            counter_add("serving.cache_invalidations", 1)
        self._adopt_embeddings()
        return stats

    def _adopt_embeddings(self) -> None:
        z_user, z_item = self.embedder.embeddings
        self._z_user = z_user
        self._candidates = (
            self._fixed_candidates
            if self._fixed_candidates is not None
            else np.arange(len(z_item), dtype=np.int64)
        )
        self._z_cand = z_item[self._candidates]

    # ------------------------------------------------------------------
    # Graph updates
    # ------------------------------------------------------------------
    def ingest(self, edges: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Append interaction edges; embeddings go stale until refresh."""
        self.graph.add_edges(edges, weights)

    @property
    def hit_rate(self) -> float:
        return self._slates.hit_rate

    @property
    def cache(self) -> LRUCache:
        return self._slates

    # ------------------------------------------------------------------
    # Request loop
    # ------------------------------------------------------------------
    def request(self, user: int, k: int) -> np.ndarray:
        """Serve a single request (a micro-batch of one)."""
        return self.serve(np.asarray([user]), k)[0]

    def serve(self, users: np.ndarray, k: int) -> list[np.ndarray]:
        """Serve one slate per requested user, in request order.

        Cache hits are answered immediately; misses are scored in
        micro-batches of ``microbatch`` users per matmul.  Every request
        records a ``serving.latency_ms`` observation (micro-batch time
        amortised per request for misses).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._z_user is None:
            raise RuntimeError("frontend is cold — call warm() first")
        if (
            self.refresh_dirty_threshold is not None
            and self.graph.dirty_fraction > self.refresh_dirty_threshold
        ):
            self.refresh()
        users = np.asarray(users, dtype=np.int64)
        with span("serving.serve", requests=len(users), k=k):
            slates: list[np.ndarray | None] = [None] * len(users)
            pending: list[tuple[int, int]] = []
            # Micro-batches flush as they fill (not after scanning the
            # whole request list), so a repeat visitor later in the same
            # call hits the slate cached by an earlier batch.
            for pos, user in enumerate(users):
                user = int(user)
                t0 = time.perf_counter()
                cached = self._slates.get_if(user, lambda v: v[0] >= k)
                if cached is not None:
                    slates[pos] = cached[1][:k]
                    counter_add("serving.requests", 1)
                    observe(
                        "serving.latency_ms", (time.perf_counter() - t0) * 1e3
                    )
                else:
                    pending.append((pos, user))
                    if len(pending) >= self.microbatch:
                        self._serve_batch(pending, k, slates)
                        pending = []
            if pending:
                self._serve_batch(pending, k, slates)
        return slates

    def _serve_batch(
        self,
        batch: list[tuple[int, int]],
        k: int,
        slates: list[np.ndarray | None],
    ) -> None:
        """Score one micro-batch of cache misses and fill ``slates``."""
        # Imported here: repro.serving.recommend itself uses the
        # streaming LRU, so a module-level import would be circular.
        from repro.serving.recommend import stable_topk

        t0 = time.perf_counter()
        num_embedded = len(self._z_user)
        warm = [(pos, user) for pos, user in batch if user < num_embedded]
        cold = [(pos, user) for pos, user in batch if user >= num_embedded]
        if warm:
            rows = self._z_user[np.asarray([u for _, u in warm])]
            scores = rows @ self._z_cand.T
            for (pos, user), row in zip(warm, scores):
                slate = self._candidates[stable_topk(row, k)]
                self._slates.put(user, (k, slate))
                slates[pos] = slate
        for pos, user in cold:
            counter_add("serving.cold_start", 1)
            if self.fallback is not None:
                slate = np.asarray(self.fallback.recommend(user, k), dtype=np.int64)
            else:
                slate = np.empty(0, dtype=np.int64)
            self._slates.put(user, (k, slate))
            slates[pos] = slate
        counter_add("serving.requests", len(batch))
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        observe("serving.batch_ms", elapsed_ms)
        per_request = elapsed_ms / len(batch)
        for _ in batch:
            observe("serving.latency_ms", per_request)
