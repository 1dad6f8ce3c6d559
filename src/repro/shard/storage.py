"""Cluster-aligned, memory-mapped CSR storage for bipartite graphs.

A :class:`ShardedCSR` directory holds one bipartite graph as per-shard
CSR blocks — ``indptr``/``indices``/``weights`` flat binary files opened
through ``np.memmap`` — plus a JSON manifest carrying the degree/offset
metadata (per-shard row and nnz counts, vertex totals, the partition
kind and the fraction of edges that stayed shard-local).  Both adjacency
directions are stored, mirroring :class:`~repro.graph.bipartite
.BipartiteGraph`'s twin CSRs, so neighbour queries stream from disk in
either direction.

Shard membership is *scattered*: a shard owns an arbitrary subset of
global vertex ids (typically one bundle of HiGNN level-1 clusters — see
:mod:`repro.shard.partition`).  Vertices are never relabelled; within a
shard, rows are stored in ascending global id and per-row neighbour
order is exactly the source graph's CSR order.  That invariant is what
keeps sampling — and therefore the sharded ``embed_all`` path — bitwise
identical to the dense implementation.  A store pickles as its path, so
a worker task given a store attaches its own read-only handle.

Lifecycle mirrors :class:`~repro.parallel.shared.SharedMatrix`: the
process that creates a store directory is the **owner** and is the only
one whose :meth:`ShardedCSR.destroy` removes the files; ``open()``
attaches read-only and ``close()`` merely drops the mappings.  Owner
directories are tracked in a module registry (:func:`active_shard_dirs`)
so tests and the benchmark harness can sweep strays.

The helpers :func:`open_block` / :func:`allocate_block` /
:func:`write_block` (and :class:`MappedMatrix`, which maps through
:func:`open_block`) are the sanctioned ``np.memmap`` call sites for the
whole repo (lint rule RPR205 flags raw ``np.memmap`` elsewhere).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.graph.bipartite import BipartiteGraph, slice_positions
from repro.obs import span
from repro.obs.metrics import counter_add
from repro.obs.monitor import heartbeat

__all__ = [
    "ShardedCSR",
    "ShardedCSRBuilder",
    "open_block",
    "allocate_block",
    "write_block",
    "MappedMatrix",
    "active_shard_dirs",
    "forget_shard_dir",
    "MANIFEST_SCHEMA",
]

MANIFEST_SCHEMA = "repro/sharded-csr/v1"
MANIFEST_NAME = "manifest.json"

_SIDES = ("user", "item")
_INDEX_DTYPE = np.dtype("<i8")
_WEIGHT_DTYPE = np.dtype("<f8")
_SHARD_DTYPE = np.dtype("<i4")
_FEATURE_DTYPE = np.dtype("<f8")
# Item-side adjacency is accumulated as (item, user, weight) triples and
# re-sorted at finalize; keeping the spill per item shard bounds the sort
# working set to one shard's edges.
_SPILL_DTYPE = np.dtype([("item", "<i8"), ("user", "<i8"), ("weight", "<f8")])

# Directories created (and not yet destroyed) by this process.
_LIVE_DIRS: set[str] = set()


def active_shard_dirs() -> set[str]:
    """Shard directories this process owns and has not destroyed."""
    return set(_LIVE_DIRS)


def forget_shard_dir(path: str | Path) -> None:
    """Drop ``path`` from the owner registry (after external cleanup)."""
    _LIVE_DIRS.discard(str(Path(path)))


# ---------------------------------------------------------------------------
# Sanctioned memmap call sites
# ---------------------------------------------------------------------------
def open_block(
    path: str | Path, dtype: np.dtype, shape: tuple[int, ...], mode: str = "r"
) -> np.ndarray:
    """A memmap over ``path`` (``mode`` "r" or "r+"), or an empty array.

    Zero-element blocks are legal in the format (empty shards) but not
    for ``mmap``, so they come back as ordinary empty arrays.
    """
    if mode not in {"r", "r+"}:
        raise ValueError(f"open_block mode must be 'r' or 'r+', got {mode!r}")
    count = int(np.prod(shape))
    if count == 0:
        return np.empty(shape, dtype=dtype)
    return np.memmap(str(path), dtype=dtype, mode=mode, shape=tuple(shape))


def allocate_block(path: str | Path, dtype: np.dtype, shape: tuple[int, ...]) -> None:
    """Create (or replace) ``path`` sized for ``shape`` without writing data.

    An existing file is unlinked, not truncated, so live memmaps of it
    keep their contents (and inode).  ``truncate`` produces a sparse
    file, so allocation cost is metadata only; pages materialise as
    they are written.
    """
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    Path(path).unlink(missing_ok=True)
    with open(path, "wb") as fh:
        if nbytes:
            fh.truncate(nbytes)


class MappedMatrix:
    """A float64 matrix file, mapped once per process that holds it.

    Pickles to its ``(path, shape, mode)`` — as
    :class:`~repro.parallel.SharedMatrix` pickles to its name — and the
    receiver maps the same file, so workers read and write the parent's
    on-disk step matrices without copies.
    """

    def __init__(
        self, path: str | Path, shape: tuple[int, ...], mode: str = "r"
    ) -> None:
        self.path, self.shape, self.mode = str(path), tuple(shape), mode
        self.array = open_block(self.path, np.float64, self.shape, mode=mode)

    def __reduce__(self):
        return (MappedMatrix, (self.path, self.shape, self.mode))


def write_block(path: str | Path, array: np.ndarray, dtype: np.dtype) -> int:
    """Write ``array`` to ``path`` as raw ``dtype`` items; returns nbytes."""
    array = np.ascontiguousarray(np.asarray(array, dtype=dtype))
    with open(path, "wb") as fh:
        array.tofile(fh)
    return array.nbytes


class ShardedCSR:
    """A bipartite graph stored as per-shard memory-mapped CSR blocks.

    Build with :meth:`from_graph` (owner, from an in-memory graph),
    :class:`ShardedCSRBuilder` (owner, streamed), or :meth:`open`
    (attach).  As a context manager an owner destroys its directory on
    exit and an attached handle merely closes — the same owner/attach
    split :class:`~repro.parallel.shared.SharedMatrix` uses.
    """

    def __init__(self, path: Path, manifest: dict, owner: bool) -> None:
        """Internal; use :meth:`from_graph` / :meth:`open`."""
        self.path = Path(path)
        self.manifest = manifest
        self._owner = owner
        self._closed = False
        self._load_vertex_tables()
        self._indices_cache: dict[tuple[str, int], np.ndarray] = {}
        self._weights_cache: dict[tuple[str, int], np.ndarray] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph,
        path: str | Path,
        num_shards: int = 4,
        hierarchy=None,
        user_shard: np.ndarray | None = None,
        item_shard: np.ndarray | None = None,
    ) -> "ShardedCSR":
        """Write ``graph`` into a new shard directory; owner handle back.

        Partitioning: explicit ``user_shard``/``item_shard`` arrays win;
        else ``hierarchy`` (a fitted HiGNN
        :class:`~repro.core.hierarchy.HierarchicalEmbeddings`) places
        whole level-1 clusters per shard; else the degree-balanced
        fallback of :func:`repro.shard.partition.partition_by_degree`.
        Per-row neighbour order is copied verbatim from the graph's twin
        CSRs, so samplers over the store replay the dense draw stream.
        """
        from repro.shard.partition import partition_by_degree, partition_from_hierarchy

        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if (user_shard is None) != (item_shard is None):
            raise ValueError("pass both user_shard and item_shard or neither")
        if user_shard is not None:
            partition = "explicit"
            user_shard = np.asarray(user_shard, dtype=_SHARD_DTYPE)
            item_shard = np.asarray(item_shard, dtype=_SHARD_DTYPE)
        elif hierarchy is not None:
            partition = "hierarchy"
            user_shard, item_shard = partition_from_hierarchy(hierarchy, num_shards)
        else:
            partition = "degree"
            user_shard = partition_by_degree(graph.user_degrees(), num_shards)
            item_shard = partition_by_degree(graph.item_degrees(), num_shards)
        for side, arr, n in (
            ("user", user_shard, graph.num_users),
            ("item", item_shard, graph.num_items),
        ):
            if arr.shape != (n,):
                raise ValueError(f"{side}_shard must have shape ({n},)")
            if len(arr) and (arr.min() < 0 or arr.max() >= num_shards):
                raise ValueError(f"{side}_shard ids out of range [0, {num_shards})")

        path = _prepare_directory(path)
        with span(
            "shard.build",
            source="graph",
            num_shards=num_shards,
            num_edges=graph.num_edges,
        ):
            shards_meta: dict[str, list[dict[str, int]]] = {}
            for side, csr, shard_arr in (
                ("user", graph._user_csr, user_shard),
                ("item", graph._item_csr, item_shard),
            ):
                write_block(path / f"{side}_shard.bin", shard_arr, _SHARD_DTYPE)
                degrees = np.diff(csr.indptr)
                side_meta = []
                for s in range(num_shards):
                    rows = np.flatnonzero(shard_arr == s)
                    lengths = degrees[rows]
                    gather = slice_positions(csr.indptr[rows], lengths)
                    indptr = np.concatenate(([0], np.cumsum(lengths)))
                    write_block(
                        path / f"{side}_{s:03d}.indptr.bin", indptr, _INDEX_DTYPE
                    )
                    write_block(
                        path / f"{side}_{s:03d}.indices.bin",
                        csr.indices[gather],
                        _INDEX_DTYPE,
                    )
                    write_block(
                        path / f"{side}_{s:03d}.weights.bin",
                        csr.weights[gather],
                        _WEIGHT_DTYPE,
                    )
                    side_meta.append({"rows": int(len(rows)), "nnz": int(len(gather))})
                counter_add("shard.edges_written", int(len(csr.indices)))
                shards_meta[side] = side_meta

            feature_dims: dict[str, int | None] = {}
            for side, feats in (
                ("user", graph.user_features),
                ("item", graph.item_features),
            ):
                if feats is None:
                    feature_dims[side] = None
                    continue
                feature_dims[side] = int(feats.shape[1])
                write_block(path / f"{side}_features.bin", feats, _FEATURE_DTYPE)

            edges = graph.edges
            if len(edges):
                local = user_shard[edges[:, 0]] == item_shard[edges[:, 1]]
                edges_shard_local = float(local.mean())
            else:
                edges_shard_local = 1.0
            manifest = _write_manifest(
                path,
                num_users=graph.num_users,
                num_items=graph.num_items,
                num_edges=graph.num_edges,
                num_shards=num_shards,
                partition=partition,
                edges_shard_local=edges_shard_local,
                feature_dims=feature_dims,
                shards=shards_meta,
            )
        _LIVE_DIRS.add(str(path))
        return cls(path, manifest, owner=True)

    @classmethod
    def open(cls, path: str | Path) -> "ShardedCSR":
        """Attach to an existing shard directory (non-owner handle)."""
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no shard manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"unknown shard manifest schema {manifest.get('schema')!r} in {path}"
            )
        return cls(path, manifest, owner=False)

    def _load_vertex_tables(self) -> None:
        """Load the small per-vertex arrays (shard map, local index, degrees).

        These are O(num_vertices) and live in RAM; only the O(num_edges)
        blocks and the feature matrices stay on disk.
        """
        s_count = self.num_shards
        self._shard: dict[str, np.ndarray] = {}
        self._local: dict[str, np.ndarray] = {}
        self._rows: dict[str, list[np.ndarray]] = {}
        self._indptr: dict[str, list[np.ndarray]] = {}
        self._degrees: dict[str, np.ndarray] = {}
        for side in _SIDES:
            n = self.num(side)
            shard_arr = np.fromfile(self.path / f"{side}_shard.bin", dtype=_SHARD_DTYPE)
            if shard_arr.shape != (n,):
                raise ValueError(f"corrupt {side}_shard.bin in {self.path}")
            order = np.argsort(shard_arr, kind="stable")
            counts = np.bincount(shard_arr, minlength=s_count)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            rows = [order[bounds[s] : bounds[s + 1]] for s in range(s_count)]
            local = np.empty(n, dtype=np.int64)
            degrees = np.zeros(n, dtype=np.int64)
            indptrs = []
            for s in range(s_count):
                meta = self.manifest["shards"][side][s]
                if len(rows[s]) != meta["rows"]:
                    raise ValueError(
                        f"{side} shard {s}: manifest says {meta['rows']} rows, "
                        f"shard map has {len(rows[s])}"
                    )
                local[rows[s]] = np.arange(len(rows[s]), dtype=np.int64)
                indptr = np.fromfile(
                    self.path / f"{side}_{s:03d}.indptr.bin", dtype=_INDEX_DTYPE
                )
                if indptr.shape != (len(rows[s]) + 1,):
                    raise ValueError(f"corrupt indptr for {side} shard {s}")
                degrees[rows[s]] = np.diff(indptr)
                indptrs.append(indptr)
            self._shard[side] = shard_arr
            self._local[side] = local
            self._rows[side] = rows
            self._indptr[side] = indptrs
            self._degrees[side] = degrees

    # -- basic queries ---------------------------------------------------
    @property
    def num_users(self) -> int:
        return int(self.manifest["num_users"])

    @property
    def num_items(self) -> int:
        return int(self.manifest["num_items"])

    @property
    def num_edges(self) -> int:
        return int(self.manifest["num_edges"])

    @property
    def num_shards(self) -> int:
        return int(self.manifest["num_shards"])

    @property
    def edges_shard_local(self) -> float:
        """Fraction of edges whose endpoints share a shard."""
        return float(self.manifest["edges_shard_local"])

    @property
    def partition(self) -> str:
        return str(self.manifest["partition"])

    def num(self, side: str) -> int:
        _check_side(side)
        return self.num_users if side == "user" else self.num_items

    def degrees(self, side: str) -> np.ndarray:
        """Global degree array for ``side`` (in RAM, read-only use)."""
        _check_side(side)
        return self._degrees[side]

    def shard_of(self, side: str) -> np.ndarray:
        """Global vertex → shard id map for ``side``."""
        _check_side(side)
        return self._shard[side]

    def shard_rows(self, side: str, shard: int) -> np.ndarray:
        """Ascending global ids owned by ``shard`` on ``side``."""
        _check_side(side)
        return self._rows[side][shard]

    def feature_dim(self, side: str) -> int | None:
        _check_side(side)
        dim = self.manifest["feature_dims"][side]
        return None if dim is None else int(dim)

    def feature_path(self, side: str) -> Path:
        _check_side(side)
        if self.feature_dim(side) is None:
            raise ValueError(f"store has no {side} features")
        return self.path / f"{side}_features.bin"

    def features(self, side: str) -> np.ndarray:
        """Read-only memmap of the (n, d) feature matrix for ``side``."""
        dim = self.feature_dim(side)
        if dim is None:
            raise ValueError(f"store has no {side} features")
        return open_block(
            self.feature_path(side), _FEATURE_DTYPE, (self.num(side), dim), mode="r"
        )

    # -- block access ----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"sharded store {self.path} is closed")

    def _block_indices(self, side: str, shard: int) -> np.ndarray:
        self._check_open()
        key = (side, shard)
        block = self._indices_cache.get(key)
        if block is None:
            nnz = self.manifest["shards"][side][shard]["nnz"]
            block = open_block(
                self.path / f"{side}_{shard:03d}.indices.bin",
                _INDEX_DTYPE,
                (nnz,),
                mode="r",
            )
            self._indices_cache[key] = block
        return block

    def _block_weights(self, side: str, shard: int) -> np.ndarray:
        self._check_open()
        key = (side, shard)
        block = self._weights_cache.get(key)
        if block is None:
            nnz = self.manifest["shards"][side][shard]["nnz"]
            block = open_block(
                self.path / f"{side}_{shard:03d}.weights.bin",
                _WEIGHT_DTYPE,
                (nnz,),
                mode="r",
            )
            self._weights_cache[key] = block
        return block

    def neighbors(self, side: str, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbour ids, weights) of one vertex, in stored CSR order."""
        _check_side(side)
        shard = int(self._shard[side][vertex])
        local = int(self._local[side][vertex])
        indptr = self._indptr[side][shard]
        lo, hi = int(indptr[local]), int(indptr[local + 1])
        ids = np.asarray(self._block_indices(side, shard)[lo:hi])
        weights = np.asarray(self._block_weights(side, shard)[lo:hi])
        counter_add("shard.mmap_bytes_read", (hi - lo) * 16)
        return ids, weights

    def gather_neighbors(
        self, side: str, vertices: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Neighbour ids at per-row ``offsets`` into each CSR slice.

        ``offsets`` is ``(len(vertices), fanout)``; rows with degree 0
        return clamped garbage exactly like the dense sampler's clipped
        gather — callers mask them with the degree test.  Visiting the
        shards in ascending id order keeps the result independent of
        layout while each read stays within one mmap block.
        """
        _check_side(side)
        vertices = np.asarray(vertices, dtype=np.int64)
        out = np.full(offsets.shape, -1, dtype=np.int64)
        shard_ids = self._shard[side][vertices]
        local = self._local[side][vertices]
        for s in np.unique(shard_ids):
            mask = shard_ids == s
            block = self._block_indices(side, int(s))
            if len(block) == 0:
                continue
            starts = self._indptr[side][int(s)][local[mask]]
            positions = np.minimum(starts[:, None] + offsets[mask], len(block) - 1)
            out[mask] = block[positions]
            counter_add("shard.mmap_bytes_read", int(positions.size) * 8)
        return out

    # -- conversion ------------------------------------------------------
    def to_graph(self):
        """Materialise the store as an in-memory ``BipartiteGraph``.

        Edges come back in canonical user-major order (ascending user,
        each user's neighbours in stored order) — only for graphs that
        fit in RAM; the point of the store is that the big ones do not.
        """
        self._check_open()
        with span("shard.to_graph", num_edges=self.num_edges):
            degrees = self._degrees["user"]
            indptr_global = np.concatenate(([0], np.cumsum(degrees)))
            edges = np.empty((self.num_edges, 2), dtype=np.int64)
            weights = np.empty(self.num_edges, dtype=np.float64)
            for s in range(self.num_shards):
                rows = self._rows["user"][s]
                lengths = degrees[rows]
                dest = slice_positions(indptr_global[rows], lengths)
                edges[dest, 0] = np.repeat(rows, lengths)
                edges[dest, 1] = self._block_indices("user", s)
                weights[dest] = self._block_weights("user", s)
            user_features = (
                np.array(self.features("user"))
                if self.feature_dim("user") is not None
                else None
            )
            item_features = (
                np.array(self.features("item"))
                if self.feature_dim("item") is not None
                else None
            )
            return BipartiteGraph(
                self.num_users,
                self.num_items,
                edges,
                weights,
                user_features,
                item_features,
            )

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Drop all mappings (idempotent); files stay on disk."""
        self._indices_cache = {}
        self._weights_cache = {}
        self._closed = True

    def destroy(self) -> None:
        """Owner cleanup: close and remove the directory (idempotent)."""
        self.close()
        if not self._owner:
            return
        self._owner = False
        _LIVE_DIRS.discard(str(self.path))
        shutil.rmtree(self.path, ignore_errors=True)

    def __reduce__(self):
        # Travels as its path, the way SharedMatrix travels as its name:
        # the receiver attaches its own (non-owner) handle.
        return (ShardedCSR.open, (str(self.path),))

    def __enter__(self) -> "ShardedCSR":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owner:
            self.destroy()
        else:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "owner" if self._owner else ("closed" if self._closed else "attached")
        return (
            f"ShardedCSR({str(self.path)!r}, users={self.num_users}, "
            f"items={self.num_items}, edges={self.num_edges}, "
            f"shards={self.num_shards}, {state})"
        )


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"side must be 'user' or 'item', got {side!r}")


def _prepare_directory(path: str | Path) -> Path:
    path = Path(path)
    if (path / MANIFEST_NAME).exists():
        raise FileExistsError(f"shard directory {path} already holds a store")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(
    path: Path,
    *,
    num_users: int,
    num_items: int,
    num_edges: int,
    num_shards: int,
    partition: str,
    edges_shard_local: float,
    feature_dims: dict[str, int | None],
    shards: dict[str, list[dict[str, int]]],
) -> dict:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "num_users": int(num_users),
        "num_items": int(num_items),
        "num_edges": int(num_edges),
        "num_shards": int(num_shards),
        "partition": partition,
        "edges_shard_local": round(float(edges_shard_local), 6),
        "feature_dims": feature_dims,
        "dtypes": {
            "indptr": _INDEX_DTYPE.str,
            "indices": _INDEX_DTYPE.str,
            "weights": _WEIGHT_DTYPE.str,
            "shard": _SHARD_DTYPE.str,
            "features": _FEATURE_DTYPE.str,
        },
        "shards": shards,
    }
    # The manifest is written last: its presence marks a complete store.
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


class ShardedCSRBuilder:
    """Stream a graph into shard files in bounded memory.

    The caller appends users in strict global order (each chunk's edges
    already per-user deduplicated, neighbours in the order that should
    become the stored CSR order).  User-side blocks are append-only;
    item-side adjacency spills as (item, user, weight) triples per item
    shard and is sorted into CSR form at :meth:`finalize` — one shard's
    edges at a time, which is the memory bound.

    Use as a context manager: an exception mid-build removes the partial
    directory.
    """

    def __init__(
        self,
        path: str | Path,
        num_users: int,
        num_items: int,
        num_shards: int,
        user_shard: np.ndarray,
        item_shard: np.ndarray,
        user_feature_dim: int | None = None,
        item_feature_dim: int | None = None,
        partition: str = "explicit",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.num_shards = int(num_shards)
        self.partition = partition
        self.user_shard = np.asarray(user_shard, dtype=_SHARD_DTYPE)
        self.item_shard = np.asarray(item_shard, dtype=_SHARD_DTYPE)
        if self.user_shard.shape != (self.num_users,):
            raise ValueError("user_shard must have one entry per user")
        if self.item_shard.shape != (self.num_items,):
            raise ValueError("item_shard must have one entry per item")
        self.path = _prepare_directory(path)
        self._feature_dims = {"user": user_feature_dim, "item": item_feature_dim}
        self._degrees = np.zeros(self.num_users, dtype=np.int64)
        self._next_user = 0
        self._local_edges = 0
        self._total_edges = 0
        self._finalized = False
        self._user_files = [
            (
                open(self.path / f"user_{s:03d}.indices.bin", "wb"),
                open(self.path / f"user_{s:03d}.weights.bin", "wb"),
            )
            for s in range(self.num_shards)
        ]
        self._spill_files = [
            open(self.path / f"item_{s:03d}.spill.bin", "wb")
            for s in range(self.num_shards)
        ]
        self._feature_maps: dict[str, np.ndarray | None] = {}
        for side, dim in sorted(self._feature_dims.items()):
            if dim is None:
                self._feature_maps[side] = None
                continue
            shape = (self.num(side), int(dim))
            feature_path = self.path / f"{side}_features.bin"
            allocate_block(feature_path, _FEATURE_DTYPE, shape)
            self._feature_maps[side] = open_block(
                feature_path, _FEATURE_DTYPE, shape, mode="r+"
            )

    def num(self, side: str) -> int:
        _check_side(side)
        return self.num_users if side == "user" else self.num_items

    @property
    def num_edges(self) -> int:
        return self._total_edges

    # -- streaming appends ----------------------------------------------
    def append_users(
        self,
        start: int,
        degrees: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Append the adjacency of users ``[start, start+len(degrees))``.

        ``indices``/``weights`` are the concatenated per-user neighbour
        lists (already deduplicated; their order here is the order the
        store — and every sampler over it — will observe).  Users must
        arrive in strict sequential order.
        """
        if self._finalized:
            raise ValueError("builder already finalized")
        if start != self._next_user:
            raise ValueError(
                f"users must be appended sequentially (expected {self._next_user}, "
                f"got {start})"
            )
        degrees = np.asarray(degrees, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        count = len(degrees)
        stop = start + count
        if stop > self.num_users:
            raise ValueError("append exceeds num_users")
        total = int(degrees.sum())
        if len(indices) != total or len(weights) != total:
            raise ValueError("indices/weights must match the degree total")
        if total and (indices.min() < 0 or indices.max() >= self.num_items):
            raise ValueError("item index out of range")

        self._degrees[start:stop] = degrees
        self._next_user = stop
        self._total_edges += total
        if not total:
            return
        rep_users = np.repeat(np.arange(start, stop, dtype=np.int64), degrees)
        user_shards = self.user_shard[rep_users]
        item_shards = self.item_shard[indices]
        self._local_edges += int((user_shards == item_shards).sum())
        for s in np.unique(user_shards):
            mask = user_shards == s
            idx_fh, w_fh = self._user_files[int(s)]
            indices[mask].tofile(idx_fh)
            weights[mask].tofile(w_fh)
        for s in np.unique(item_shards):
            mask = item_shards == s
            triples = np.empty(int(mask.sum()), dtype=_SPILL_DTYPE)
            triples["item"] = indices[mask]
            triples["user"] = rep_users[mask]
            triples["weight"] = weights[mask]
            triples.tofile(self._spill_files[int(s)])
        counter_add("shard.edges_written", total)
        heartbeat(
            "shard.stream_users",
            self._next_user,
            self.num_users,
            edges=self._total_edges,
        )

    def set_user_features(self, start: int, block: np.ndarray) -> None:
        self._set_features("user", start, block)

    def set_item_features(self, start: int, block: np.ndarray) -> None:
        self._set_features("item", start, block)

    def _set_features(self, side: str, start: int, block: np.ndarray) -> None:
        if self._finalized:
            raise ValueError("builder already finalized")
        target = self._feature_maps[side]
        if target is None:
            raise ValueError(f"builder was created without {side} features")
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != target.shape[1]:
            raise ValueError(
                f"{side} feature block must be (n, {target.shape[1]}), "
                f"got {block.shape}"
            )
        if start < 0 or start + len(block) > len(target):
            raise ValueError(f"{side} feature block out of range")
        target[start : start + len(block)] = block
        counter_add("shard.mmap_bytes_written", int(block.nbytes))

    # -- finalize / abort ------------------------------------------------
    def finalize(self) -> ShardedCSR:
        """Sort the item-side spills into CSR blocks; return the owner store."""
        if self._finalized:
            raise ValueError("builder already finalized")
        if self._next_user != self.num_users:
            raise ValueError(
                f"only {self._next_user} of {self.num_users} users appended"
            )
        with span(
            "shard.build",
            source="stream",
            num_shards=self.num_shards,
            num_edges=self._total_edges,
        ):
            self._close_streams()
            shards_meta: dict[str, list[dict[str, int]]] = {"user": [], "item": []}
            write_block(self.path / "user_shard.bin", self.user_shard, _SHARD_DTYPE)
            write_block(self.path / "item_shard.bin", self.item_shard, _SHARD_DTYPE)
            for s in range(self.num_shards):
                rows = np.flatnonzero(self.user_shard == s)
                lengths = self._degrees[rows]
                indptr = np.concatenate(([0], np.cumsum(lengths)))
                write_block(self.path / f"user_{s:03d}.indptr.bin", indptr, _INDEX_DTYPE)
                shards_meta["user"].append(
                    {"rows": int(len(rows)), "nnz": int(indptr[-1])}
                )

            item_local = np.full(self.num_items, -1, dtype=np.int64)
            for s in range(self.num_shards):
                rows = np.flatnonzero(self.item_shard == s)
                item_local[rows] = np.arange(len(rows), dtype=np.int64)
                spill_path = self.path / f"item_{s:03d}.spill.bin"
                triples = np.fromfile(spill_path, dtype=_SPILL_DTYPE)
                # The spill arrived in (user, item) order; a stable sort
                # by item therefore leaves each item's users ascending —
                # the same order BipartiteGraph's item CSR derives from a
                # user-major edge list.
                order = np.argsort(triples["item"], kind="stable")
                local = item_local[triples["item"][order]]
                counts = np.bincount(local, minlength=len(rows)) if len(rows) else (
                    np.zeros(0, dtype=np.int64)
                )
                indptr = np.concatenate(([0], np.cumsum(counts)))
                write_block(self.path / f"item_{s:03d}.indptr.bin", indptr, _INDEX_DTYPE)
                write_block(
                    self.path / f"item_{s:03d}.indices.bin",
                    triples["user"][order],
                    _INDEX_DTYPE,
                )
                write_block(
                    self.path / f"item_{s:03d}.weights.bin",
                    triples["weight"][order],
                    _WEIGHT_DTYPE,
                )
                shards_meta["item"].append(
                    {"rows": int(len(rows)), "nnz": int(len(triples))}
                )
                spill_path.unlink()
                heartbeat("shard.finalize", s + 1, self.num_shards)

            local_fraction = (
                self._local_edges / self._total_edges if self._total_edges else 1.0
            )
            manifest = _write_manifest(
                self.path,
                num_users=self.num_users,
                num_items=self.num_items,
                num_edges=self._total_edges,
                num_shards=self.num_shards,
                partition=self.partition,
                edges_shard_local=local_fraction,
                feature_dims=self._feature_dims,
                shards=shards_meta,
            )
        self._finalized = True
        _LIVE_DIRS.add(str(self.path))
        return ShardedCSR(self.path, manifest, owner=True)

    def abort(self) -> None:
        """Discard the partial build and remove the directory."""
        if self._finalized:
            return
        self._close_streams()
        self._finalized = True
        shutil.rmtree(self.path, ignore_errors=True)

    def _close_streams(self) -> None:
        for idx_fh, w_fh in self._user_files:
            if not idx_fh.closed:
                idx_fh.close()
            if not w_fh.closed:
                w_fh.close()
        for fh in self._spill_files:
            if not fh.closed:
                fh.close()
        for side in sorted(self._feature_maps):
            target = self._feature_maps[side]
            if target is not None and isinstance(target, np.memmap):
                target.flush()
            self._feature_maps[side] = None

    def __enter__(self) -> "ShardedCSRBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
