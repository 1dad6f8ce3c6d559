"""Deterministic multi-process execution for the hot paths.

Public surface:

* :class:`WorkerPool` / :func:`get_pool` / :func:`configure` — lazily
  started fork pools with an in-process fallback at ``workers<=1``.
* :class:`SharedMatrix` / :func:`shared_arrays` — zero-copy broadcast of
  large read-only ndarrays to workers via POSIX shared memory.

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
from repro.parallel.shared import (
    SharedMatrix,
    active_segment_names,
    as_ndarray,
    shared_arrays,
)

__all__ = [
    "ParallelConfig",
    "WorkerPool",
    "configure",
    "get_pool",
    "shutdown_pools",
    "SharedMatrix",
    "active_segment_names",
    "as_ndarray",
    "shared_arrays",
]
