"""Memory-mapped CSR storage for bipartite graphs that do not fit in RAM.

A :class:`ShardedCSR` directory holds one bipartite graph as one CSR per
side — ``<side>.indptr.bin`` / ``<side>.indices.bin`` /
``<side>.weights.bin`` flat binary files, rows in the source's CSR
order — plus ``<side>_features.bin`` matrices and a JSON manifest of
the vertex, edge and feature counts.  Both adjacency directions are
stored, mirroring :class:`~repro.graph.bipartite.BipartiteGraph`'s twin
CSRs, and a store answers the same array queries through the same
:class:`~repro.graph.bipartite._CSR`: only the ``indptr`` arrays
(O(vertices)) are read into RAM; neighbour lists and features stay on
disk behind ``np.memmap``.  Per-row neighbour order is the source's,
which keeps sampling — and so the out-of-core ``embed_all`` — bitwise
identical to the in-memory graph.  A store's reads keep no state, so
the pool's worker threads share one handle.

:meth:`ShardedCSR.open` checks every file against the manifest (byte
sizes, and each ``indptr`` running from 0 to the edge count without
decreasing), so a truncated or corrupt store fails when it is opened,
not at the first draw inside a task.

Lifecycle: the process that creates a store directory is the
**owner** and is the only one whose :meth:`ShardedCSR.destroy` removes
the files; ``open()`` attaches read-only and ``close()`` merely drops
the mappings.  Owner
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

from repro.graph.bipartite import BipartiteGraph, _CSR
from repro.obs import span
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

MANIFEST_SCHEMA = "repro/sharded-csr/v2"
MANIFEST_NAME = "manifest.json"

_SIDES = ("user", "item")
_INDEX_DTYPE = np.dtype("<i8")
_WEIGHT_DTYPE = np.dtype("<f8")
_FEATURE_DTYPE = np.dtype("<f8")
# Item-side adjacency is accumulated as (item, user, weight) triples and
# sorted at finalize; spilling per item-id range bounds the sort's
# working set to one range's edges.
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

    Zero-element blocks are legal in the format (edgeless graphs) but
    not for ``mmap``, so they come back as ordinary empty arrays.
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
    """A float64 matrix file and its one mapping: the on-disk step
    matrices that the tasks of out-of-core ``embed_all`` read and write."""

    def __init__(
        self, path: str | Path, shape: tuple[int, ...], mode: str = "r"
    ) -> None:
        self.path, self.shape = str(path), tuple(shape)
        self.array = open_block(self.path, np.float64, self.shape, mode=mode)


def write_block(path: str | Path, array: np.ndarray, dtype: np.dtype) -> int:
    """Write ``array`` to ``path`` as raw ``dtype`` items; returns nbytes."""
    array = np.ascontiguousarray(np.asarray(array, dtype=dtype))
    with open(path, "wb") as fh:
        array.tofile(fh)
    return array.nbytes


class ShardedCSR:
    """A bipartite graph stored as one memory-mapped CSR per side.

    Build with :meth:`from_graph` (owner, from an in-memory graph),
    :class:`ShardedCSRBuilder` (owner, streamed), or :meth:`open`
    (attach).  As a context manager an owner destroys its directory on
    exit and an attached handle merely closes.
    """

    def __init__(self, path: Path, manifest: dict, owner: bool) -> None:
        """Internal; use :meth:`from_graph` / :meth:`open`."""
        self.path = Path(path)
        self.manifest = manifest
        self._owner = owner
        self._check_files()
        self._csrs = {side: self._map_csr(side) for side in _SIDES}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_graph(cls, graph, path: str | Path) -> "ShardedCSR":
        """Write ``graph``'s two CSRs and features verbatim into a new
        store directory; owner handle back."""
        path = _prepare_directory(path)
        with span("shard.build", source="graph", num_edges=graph.num_edges):
            for side in _SIDES:
                csr = graph._csr(side)
                write_block(path / f"{side}.indptr.bin", csr.indptr, _INDEX_DTYPE)
                write_block(path / f"{side}.indices.bin", csr.indices, _INDEX_DTYPE)
                write_block(path / f"{side}.weights.bin", csr.weights, _WEIGHT_DTYPE)
            feature_dims: dict[str, int | None] = {}
            for side, feats in (
                ("user", graph.user_features),
                ("item", graph.item_features),
            ):
                feature_dims[side] = None if feats is None else int(feats.shape[1])
                if feats is not None:
                    write_block(path / f"{side}_features.bin", feats, _FEATURE_DTYPE)
            manifest = _write_manifest(
                path, graph.num_users, graph.num_items, graph.num_edges, feature_dims
            )
        _LIVE_DIRS.add(str(path))
        return cls(path, manifest, owner=True)

    @classmethod
    def open(cls, path: str | Path) -> "ShardedCSR":
        """Attach to an existing store directory (non-owner handle).

        Raises ``ValueError`` naming the file when a file disagrees with
        the manifest, and for a manifest of another schema.
        """
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no shard manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        schema = manifest.get("schema")
        if schema == "repro/sharded-csr/v1":
            raise ValueError(
                f"{path} holds a {schema} store (per-shard blocks), which this "
                f"version no longer reads; rebuild it as {MANIFEST_SCHEMA}"
            )
        if schema != MANIFEST_SCHEMA:
            raise ValueError(f"unknown shard manifest schema {schema!r} in {path}")
        return cls(path, manifest, owner=False)

    def _check_files(self) -> None:
        """Every file's byte size against the manifest (no data read)."""
        nnz = self.num_edges
        expected = {}
        for side in _SIDES:
            n = self.num(side)
            expected[f"{side}.indptr.bin"] = (n + 1) * _INDEX_DTYPE.itemsize
            expected[f"{side}.indices.bin"] = nnz * _INDEX_DTYPE.itemsize
            expected[f"{side}.weights.bin"] = nnz * _WEIGHT_DTYPE.itemsize
            dim = self.feature_dim(side)
            if dim is not None:
                expected[f"{side}_features.bin"] = n * dim * _FEATURE_DTYPE.itemsize
        for name, nbytes in expected.items():
            file = self.path / name
            size = file.stat().st_size if file.is_file() else None
            if size != nbytes:
                raise ValueError(
                    f"corrupt store file {file}: {size} bytes, manifest implies {nbytes}"
                )

    def _map_csr(self, side: str) -> _CSR:
        """``side``'s CSR: ``indptr`` (checked) and degrees in RAM, the
        neighbour lists mapped."""
        file = self.path / f"{side}.indptr.bin"
        indptr = np.fromfile(file, dtype=_INDEX_DTYPE)
        degrees = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != self.num_edges or (degrees < 0).any():
            raise ValueError(
                f"corrupt store file {file}: indptr must rise from 0 to "
                f"{self.num_edges} without decreasing"
            )
        degrees.flags.writeable = False
        nnz = (self.num_edges,)
        return _CSR(
            indptr,
            open_block(self.path / f"{side}.indices.bin", _INDEX_DTYPE, nnz),
            open_block(self.path / f"{side}.weights.bin", _WEIGHT_DTYPE, nnz),
            degrees,
        )

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

    def num(self, side: str) -> int:
        _check_side(side)
        return self.num_users if side == "user" else self.num_items

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
        path = self.feature_path(side)  # raises when there are none
        return open_block(path, _FEATURE_DTYPE, (self.num(side), self.feature_dim(side)))

    # -- adjacency (the queries BipartiteGraph answers) -------------------
    def _csr(self, side: str) -> _CSR:
        _check_side(side)
        if not self._csrs:
            raise ValueError(f"sharded store {self.path} is closed")
        return self._csrs[side]

    def degrees(self, side: str) -> np.ndarray:
        """Degree of every ``side`` vertex (in RAM, read-only)."""
        return self._csr(side).degrees

    def gather_neighbors(
        self, side: str, vertices: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Neighbour ids at per-row ``offsets``; see
        :meth:`BipartiteGraph.gather_neighbors`."""
        return self._csr(side).gather(vertices, offsets)

    def neighbors(self, side: str, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbour ids, weights) of one vertex, in stored CSR order."""
        csr = self._csr(side)
        return np.asarray(csr.neighbors(vertex)), np.asarray(csr.neighbor_weights(vertex))

    # -- conversion ------------------------------------------------------
    def to_graph(self):
        """Materialise the store as an in-memory ``BipartiteGraph``.

        Edges come back in canonical user-major order (ascending user,
        each user's neighbours in stored order) — only for graphs that
        fit in RAM; the point of the store is that the big ones do not.
        """
        csr = self._csr("user")
        with span("shard.to_graph", num_edges=self.num_edges):
            edges = np.empty((self.num_edges, 2), dtype=np.int64)
            edges[:, 0] = np.repeat(np.arange(self.num_users, dtype=np.int64), csr.degrees)
            edges[:, 1] = csr.indices
            features = [
                None if self.feature_dim(side) is None else np.array(self.features(side))
                for side in _SIDES
            ]
            return BipartiteGraph(
                self.num_users, self.num_items, edges, np.array(csr.weights), *features
            )

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Drop all mappings (idempotent); files stay on disk."""
        self._csrs = {}

    def destroy(self) -> None:
        """Owner cleanup: close and remove the directory (idempotent)."""
        self.close()
        if not self._owner:
            return
        self._owner = False
        _LIVE_DIRS.discard(str(self.path))
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "ShardedCSR":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owner:
            self.destroy()
        else:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "owner" if self._owner else ("attached" if self._csrs else "closed")
        return (
            f"ShardedCSR({str(self.path)!r}, users={self.num_users}, "
            f"items={self.num_items}, edges={self.num_edges}, {state})"
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
    num_users: int,
    num_items: int,
    num_edges: int,
    feature_dims: dict[str, int | None],
) -> dict:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "num_users": int(num_users),
        "num_items": int(num_items),
        "num_edges": int(num_edges),
        "feature_dims": feature_dims,
        "dtypes": {
            "indptr": _INDEX_DTYPE.str,
            "indices": _INDEX_DTYPE.str,
            "weights": _WEIGHT_DTYPE.str,
            "features": _FEATURE_DTYPE.str,
        },
    }
    # The manifest is written last: its presence marks a complete store.
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


class ShardedCSRBuilder:
    """Stream a graph into a store in bounded memory.

    The caller appends users in strict global order (each chunk's edges
    already per-user deduplicated, neighbours in the order that should
    become the stored CSR order); user rows go straight to the user
    files.  The item side spills as (item, user, weight) triples into
    ``num_shards`` contiguous item-id ranges, and :meth:`finalize` sorts
    one range at a time into the item CSR — so ``num_shards`` sets the
    finalize sort's memory bound and changes no byte of the store.

    Use as a context manager: an exception mid-build removes the partial
    directory.
    """

    def __init__(
        self,
        path: str | Path,
        num_users: int,
        num_items: int,
        num_shards: int = 1,
        user_feature_dim: int | None = None,
        item_feature_dim: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.num_shards = int(num_shards)
        # Range r spills items [bounds[r], bounds[r + 1]).
        self._bounds = np.arange(self.num_shards + 1) * self.num_items // self.num_shards
        self.path = _prepare_directory(path)
        self._feature_dims = {"user": user_feature_dim, "item": item_feature_dim}
        self._degrees = np.zeros(self.num_users, dtype=np.int64)
        self._next_user = 0
        self._total_edges = 0
        self._finalized = False
        self._user_files = [
            open(self.path / f"user.{part}.bin", "wb") for part in ("indices", "weights")
        ]
        self._spill_files = [
            open(self.path / f"item_{r:03d}.spill.bin", "wb")
            for r in range(self.num_shards)
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
        indices.tofile(self._user_files[0])
        weights.tofile(self._user_files[1])
        rep_users = np.repeat(np.arange(start, stop, dtype=np.int64), degrees)
        ranges = np.searchsorted(self._bounds[1:], indices, side="right")
        for r in np.unique(ranges):
            mask = ranges == r
            triples = np.empty(int(mask.sum()), dtype=_SPILL_DTYPE)
            triples["item"] = indices[mask]
            triples["user"] = rep_users[mask]
            triples["weight"] = weights[mask]
            triples.tofile(self._spill_files[int(r)])
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

    # -- finalize / abort ------------------------------------------------
    def finalize(self) -> ShardedCSR:
        """Sort the item-side spills into the item CSR; return the owner store."""
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
            write_block(
                self.path / "user.indptr.bin",
                np.concatenate(([0], np.cumsum(self._degrees))),
                _INDEX_DTYPE,
            )
            item_degrees = np.zeros(self.num_items, dtype=np.int64)
            with open(self.path / "item.indices.bin", "wb") as idx_fh, open(
                self.path / "item.weights.bin", "wb"
            ) as w_fh:
                for r in range(self.num_shards):
                    lo, hi = int(self._bounds[r]), int(self._bounds[r + 1])
                    spill_path = self.path / f"item_{r:03d}.spill.bin"
                    triples = np.fromfile(spill_path, dtype=_SPILL_DTYPE)
                    # The spill arrived in (user, item) order; a stable sort
                    # by item therefore leaves each item's users ascending —
                    # the same order BipartiteGraph's item CSR derives from a
                    # user-major edge list.
                    order = np.argsort(triples["item"], kind="stable")
                    item_degrees[lo:hi] = np.bincount(
                        triples["item"] - lo, minlength=hi - lo
                    )
                    triples["user"][order].tofile(idx_fh)
                    triples["weight"][order].tofile(w_fh)
                    spill_path.unlink()
                    heartbeat("shard.finalize", r + 1, self.num_shards)
            write_block(
                self.path / "item.indptr.bin",
                np.concatenate(([0], np.cumsum(item_degrees))),
                _INDEX_DTYPE,
            )
            manifest = _write_manifest(
                self.path,
                self.num_users,
                self.num_items,
                self._total_edges,
                self._feature_dims,
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
        for fh in self._user_files + self._spill_files:
            fh.close()
        for side in sorted(self._feature_maps):
            target = self._feature_maps[side]
            if isinstance(target, np.memmap):
                target.flush()
            self._feature_maps[side] = None

    def __enter__(self) -> "ShardedCSRBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
