"""Deterministic thread fan-out for out-of-core embedding.

Public surface: :class:`WorkerPool` / :func:`get_pool` /
:func:`shutdown_pools` — lazily started thread pools with an inline
fallback at ``workers<=1``.  The one caller that fans out is the
layer-wise pass of ``embed_all`` over a ``ShardedCSR`` store.

Design contract: any result computed through this package is bitwise
identical for every worker count, given the same seed.
"""

from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools

__all__ = ["WorkerPool", "get_pool", "shutdown_pools"]
