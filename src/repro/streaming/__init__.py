"""Streaming serving stack: incremental graphs, online refresh, frontend.

Production serving means edges arriving continuously, not a frozen
graph.  This package layers three pieces over the reproduction:

* :class:`IncrementalBipartiteGraph` — a
  :class:`~repro.graph.bipartite.BipartiteGraph` plus a pending delta
  of O(delta) edge/vertex appends, folded into a new graph on read,
  and a dirty-vertex frontier.
* :class:`StreamingEmbedder` — layer-wise inference with cached per-step
  matrices and a delta-aware :meth:`~StreamingEmbedder.refresh` that
  recomputes only the P-hop out-neighbourhood of the dirty frontier,
  bitwise-identical to a full pass on the mutated graph.
* :class:`ServingFrontend` — a micro-batched request loop with a bounded
  LRU slate cache (hit/miss/eviction counters and latency histograms in
  :mod:`repro.obs`), cold-start admission via a fallback recommender,
  and graceful degradation to full recompute when the dirty frontier
  grows too large.

See README "Streaming & serving".
"""

from repro.streaming.frontend import ServingFrontend
from repro.streaming.incremental import IncrementalBipartiteGraph
from repro.streaming.lru import LRUCache
from repro.streaming.refresh import RefreshStats, StreamingEmbedder

__all__ = [
    "IncrementalBipartiteGraph",
    "LRUCache",
    "RefreshStats",
    "ServingFrontend",
    "StreamingEmbedder",
]
