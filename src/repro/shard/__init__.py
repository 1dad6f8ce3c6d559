"""Cluster-aligned sharded storage for out-of-core bipartite graphs.

Public surface:

* :class:`ShardedCSR` / :class:`ShardedCSRBuilder` — per-shard
  memory-mapped CSR blocks with an owner/attach lifecycle.
  A store answers the two array queries ``degrees(side)`` and
  ``gather_neighbors(side, vertices, offsets)`` a graph answers, so
  :func:`~repro.graph.sampling.sample_neighbors` draws over either.
* :func:`partition_balanced` / :func:`partition_by_degree` /
  :func:`partition_from_hierarchy` — deterministic vertex → shard maps.
* :func:`open_block` / :func:`allocate_block` / :func:`write_block` —
  the repo's sanctioned ``np.memmap`` call sites (lint rule RPR205).
"""

from repro.shard.partition import (
    pack_groups,
    partition_balanced,
    partition_by_degree,
    partition_from_hierarchy,
)
from repro.shard.storage import (
    MANIFEST_SCHEMA,
    ShardedCSR,
    ShardedCSRBuilder,
    active_shard_dirs,
    allocate_block,
    forget_shard_dir,
    open_block,
    write_block,
)

__all__ = [
    "ShardedCSR",
    "ShardedCSRBuilder",
    "pack_groups",
    "partition_balanced",
    "partition_by_degree",
    "partition_from_hierarchy",
    "active_shard_dirs",
    "forget_shard_dir",
    "open_block",
    "allocate_block",
    "write_block",
    "MANIFEST_SCHEMA",
]
