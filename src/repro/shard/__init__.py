"""Out-of-core storage for bipartite graphs that do not fit in RAM.

Public surface:

* :class:`ShardedCSR` / :class:`ShardedCSRBuilder` — one memory-mapped
  CSR per side with an owner/attach lifecycle, written from a graph or
  streamed in bounded memory.  A store answers the two array queries
  ``degrees(side)`` and ``gather_neighbors(side, vertices, offsets)`` a
  graph answers, through the same CSR code, so
  :func:`~repro.graph.sampling.sample_neighbors` draws over either.
* :func:`open_block` / :func:`allocate_block` / :func:`write_block` —
  the repo's sanctioned ``np.memmap`` call sites (lint rule RPR205).
"""

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
    "active_shard_dirs",
    "forget_shard_dir",
    "open_block",
    "allocate_block",
    "write_block",
    "MANIFEST_SCHEMA",
]
