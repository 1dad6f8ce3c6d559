"""Deterministic multi-process execution for out-of-core embedding.

Public surface: :class:`WorkerPool` / :func:`get_pool` /
:func:`configure` — lazily started fork pools with an in-process
fallback at ``workers<=1``.  The one caller that fans out is the
layer-wise pass of ``embed_all`` over a ``ShardedCSR`` store.

Design contract: any result computed through this package is bitwise
identical for every worker count, given the same seed.
"""

from repro.parallel.pool import (
    ParallelConfig,
    WorkerPool,
    configure,
    get_pool,
    shutdown_pools,
)

__all__ = [
    "ParallelConfig",
    "WorkerPool",
    "configure",
    "get_pool",
    "shutdown_pools",
]
