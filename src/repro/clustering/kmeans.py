"""K-means clustering — the deterministic clustering stage of HiGNN.

Three variants are provided:

* ``lloyd`` — classic batch Lloyd iterations with k-means++ seeding.
* ``minibatch`` — Sculley-style mini-batch updates.
* ``single_pass`` — the paper's scalability choice (Section III-D):
  "we use the single-pass version which estimates the cluster centers
  with a single pass over all data".  Centres are k-means++-seeded, then
  each point is assigned once and pulls its centre with a per-centre
  decaying learning rate; a final assignment pass labels every point.

All variants are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import span
from repro.obs.metrics import counter_add
from repro.utils.config import KMeansConfig
from repro.utils.rng import clone_rng, derive_rng, ensure_rng

__all__ = ["KMeansResult", "kmeans", "kmeans_plus_plus", "assign_to_centers"]

# Assignment passes over fewer points than this stay one-shot; larger
# ones are split into fixed 2048-point chunks (bounding the distance
# matrix).  Both constants depend only on n, so every run executes the
# same per-chunk computations.
_ASSIGN_MIN_N = 4096
_ASSIGN_CHUNK = 2048


@dataclass(frozen=True)
class KMeansResult:
    """Clustering output.

    Attributes
    ----------
    centers:
        ``(k, d)`` centroid matrix.
    labels:
        Per-point cluster ids in ``[0, k)``.
    inertia:
        Sum of squared distances of points to their assigned centroid.
    n_iter:
        Lloyd iterations executed (1 for single-pass, batches for minibatch).
    """

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int

    @property
    def n_clusters(self) -> int:
        return len(self.centers)


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    config: KMeansConfig | None = None,
    rng: int | np.random.Generator | None = None,
) -> KMeansResult:
    """Cluster ``points`` into ``n_clusters`` groups.

    Dispatches on ``config.algorithm``; runs ``config.n_init`` restarts
    and keeps the lowest-inertia result.  ``n_clusters`` is clamped to
    the number of distinct points.

    With ``n_init > 1`` each restart runs on its own pre-derived RNG
    stream; the first restart clones the caller's generator so
    ``n_init=1`` results are reproduced exactly.  Large assignment
    passes are chunked.
    """
    config = config or KMeansConfig()
    rng = ensure_rng(rng)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if len(points) == 0:
        raise ValueError("cannot cluster an empty point set")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    n_clusters = _clamp_to_distinct(points, n_clusters)
    n_init = max(1, config.n_init)
    # Restart 0 clones the caller's generator (bit-identical to the
    # single-restart path); the rest get streams derived up front, so
    # every restart's stream is fixed before any restart runs.
    if n_init == 1:
        rngs = [rng]
    else:
        rngs = [clone_rng(rng)] + [derive_rng(rng, i) for i in range(1, n_init)]

    with span(
        "kmeans",
        algorithm=config.algorithm,
        n=len(points),
        k=n_clusters,
        n_init=n_init,
    ) as kspan:
        results = [_restart(points, n_clusters, config, r) for r in rngs]
        best = results[0]
        for result in results[1:]:  # restart order -> deterministic ties
            if result.inertia < best.inertia:
                best = result
        counter_add("kmeans.runs", 1)
        counter_add("kmeans.points_assigned", len(points))
        kspan.set(n_iter=best.n_iter, inertia=best.inertia)
    return best


def _restart(
    points: np.ndarray, n_clusters: int, config: KMeansConfig, rng: np.random.Generator
) -> KMeansResult:
    """One k-means restart on its own generator."""
    if config.algorithm == "lloyd":
        result = _lloyd(points, n_clusters, config, rng)
    elif config.algorithm == "minibatch":
        result = _minibatch(points, n_clusters, config, rng)
    else:
        result = _single_pass(points, n_clusters, rng, config.chunk_size)
    counter_add("kmeans.iterations", result.n_iter)
    return result


def _clamp_to_distinct(points: np.ndarray, n_clusters: int) -> int:
    """Clamp ``n_clusters`` to the number of distinct points — cheaply.

    The exact distinct-row count (``np.unique(points, axis=0)``) costs a
    full lexicographic row sort, which used to run on *every* call.  The
    distinct-value count of a fixed 1-D projection lower-bounds the
    distinct-row count (equal rows project equally), so the expensive
    exact count only runs when that cheap bound says clamping might be
    needed.  No RNG is consumed, so seeded results are unchanged.
    """
    if n_clusters <= 1:
        return n_clusters
    projection = points @ np.linspace(1.0, 2.0, points.shape[1])
    if len(np.unique(projection)) >= n_clusters:
        return n_clusters
    return min(n_clusters, len(np.unique(points, axis=0)))


def kmeans_plus_plus(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007)."""
    n = len(points)
    centers = np.empty((n_clusters, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest_sq = _sq_dist_to(points, centers[0])
    for c in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with an existing centre.
            centers[c:] = points[rng.integers(n, size=n_clusters - c)]
            break
        probs = closest_sq / total
        idx = int(rng.choice(n, p=probs))
        centers[c] = points[idx]
        closest_sq = np.minimum(closest_sq, _sq_dist_to(points, centers[c]))
    return centers


def _assign_chunk(chunk: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Assign one chunk of points to its nearest centres."""
    dists = _pairwise_sq_dists(chunk, centers)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(len(chunk)), labels].sum())
    return labels, inertia


def assign_to_centers(
    points: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, float]:
    """Nearest-centre labels and the resulting inertia.

    Small inputs are assigned in one shot.  From ``_ASSIGN_MIN_N``
    points the pass is split into fixed chunks (boundaries depend only
    on ``len(points)``); labels and the chunk-inertia sum are reduced in
    chunk order.
    """
    n = len(points)
    if n < _ASSIGN_MIN_N:
        return _assign_chunk(points, centers)
    parts = [
        _assign_chunk(points[start : start + _ASSIGN_CHUNK], centers)
        for start in range(0, n, _ASSIGN_CHUNK)
    ]
    labels = np.concatenate([part[0] for part in parts])
    inertia = float(sum(part[1] for part in parts))
    return labels, inertia


def _lloyd(
    points: np.ndarray,
    n_clusters: int,
    config: KMeansConfig,
    rng: np.random.Generator,
) -> KMeansResult:
    centers = kmeans_plus_plus(points, n_clusters, rng)
    labels, inertia = assign_to_centers(points, centers)
    for iteration in range(1, config.max_iter + 1):
        centers = _recompute_centers(points, labels, centers, rng)
        new_labels, new_inertia = assign_to_centers(points, centers)
        counter_add("kmeans.reassignments", int((new_labels != labels).sum()))
        labels = new_labels
        if abs(inertia - new_inertia) <= config.tol * max(inertia, 1e-12):
            inertia = new_inertia
            break
        inertia = new_inertia
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=iteration)


def _running_mean_update(
    centers: np.ndarray, counts: np.ndarray, batch: np.ndarray, labels: np.ndarray
) -> None:
    """Fold ``batch`` into ``centers`` with per-centre decaying rates.

    Vectorised (``np.add.at`` scatter) equivalent of processing the
    batch point-by-point with ``eta = 1/count``: a centre that absorbs
    ``m`` points with sum ``s`` ends at ``(c0*v0 + s) / (c0 + m)`` — the
    same running mean the sequential loop converges to, applied in one
    shot.  For a single-point batch the arithmetic is identical to the
    sequential update.
    """
    k, dim = centers.shape
    added = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.zeros((k, dim))
    np.add.at(sums, labels, batch)
    touched = added > 0
    new_counts = counts + added
    centers[touched] += (
        sums[touched] - added[touched, None] * centers[touched]
    ) / new_counts[touched, None]
    counts[:] = new_counts


def _minibatch(
    points: np.ndarray,
    n_clusters: int,
    config: KMeansConfig,
    rng: np.random.Generator,
) -> KMeansResult:
    centers = kmeans_plus_plus(points, n_clusters, rng)
    counts = np.zeros(n_clusters)
    n_batches = max(1, config.max_iter)
    for _ in range(n_batches):
        batch_idx = rng.integers(len(points), size=min(config.batch_size, len(points)))
        batch = points[batch_idx]
        labels, _ = assign_to_centers(batch, centers)
        _running_mean_update(centers, counts, batch, labels)
    labels, inertia = assign_to_centers(points, centers)
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=n_batches)


def _single_pass(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    chunk_size: int = 256,
) -> KMeansResult:
    """Single-pass K-means (Section III-D) with chunked assignment.

    Points are still visited exactly once in a random permutation and
    centres still move with per-centre decaying rates; points are merely
    assigned ``chunk_size`` at a time against the chunk-start centres so
    the distance computation is one matrix product per chunk instead of
    one row per point.  ``chunk_size=1`` reproduces the fully sequential
    reference bit-for-bit.
    """
    centers = kmeans_plus_plus(points, n_clusters, rng)
    counts = np.ones(n_clusters)  # seeds count as one observation
    order = rng.permutation(len(points))
    for start in range(0, len(order), max(1, chunk_size)):
        chunk = points[order[start : start + max(1, chunk_size)]]
        labels, _ = assign_to_centers(chunk, centers)
        _running_mean_update(centers, counts, chunk, labels)
    labels, inertia = assign_to_centers(points, centers)
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=1)


def _recompute_centers(
    points: np.ndarray,
    labels: np.ndarray,
    old_centers: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    k, dim = old_centers.shape
    sums = np.zeros((k, dim))
    np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    centers = old_centers.copy()
    occupied = counts > 0
    centers[occupied] = sums[occupied] / counts[occupied, None]
    # Re-seed empty clusters at the points farthest from their centres.
    empty = np.flatnonzero(~occupied)
    if len(empty):
        dists = _pairwise_sq_dists(points, centers).min(axis=1)
        farthest = np.argsort(dists)[::-1]
        for slot, point_idx in zip(empty, farthest[: len(empty)]):
            centers[slot] = points[point_idx]
    return centers


def _sq_dist_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return np.einsum("ij,ij->i", diff, diff)


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped at 0 for fp safety.
    sq = (
        np.einsum("ij,ij->i", points, points)[:, None]
        - 2.0 * points @ centers.T
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return np.maximum(sq, 0.0)
