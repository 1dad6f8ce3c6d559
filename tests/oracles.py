"""Test oracles: straightforward implementations the library is checked against.

``benchmarks/hotpaths.py`` times the reference loops below as the ``before``
rows of its sections.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph


def reference_fold(base: BipartiteGraph, inc) -> BipartiteGraph:
    """``base`` plus the pending delta of ``inc``, built by the constructor.

    The fold by rebuilding: concatenate the edges, sum each re-added pair
    into its first slot in arrival order (``np.bincount`` sums in array
    order), keep the pairs in order of first arrival, and hand the result
    to the public constructor.  ``IncrementalBipartiteGraph.graph`` must
    give exactly these bytes.
    """
    edges = np.concatenate([base.edges, *inc._pending_edges])
    weights = np.concatenate([base.edge_weights, *inc._pending_weights])
    keys = edges[:, 0] * inc.num_items + edges[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) < len(edges):
        summed = np.bincount(inverse, weights=weights, minlength=len(first))
        order = np.argsort(first)
        edges, weights = edges[first[order]], summed[order]
    features = []
    for side in ("user", "item"):
        matrix, pending = getattr(base, f"{side}_features"), inc._pending_features[side]
        features.append(matrix if matrix is None or not pending else np.concatenate([matrix, *pending]))
    return BipartiteGraph(inc.num_users, inc.num_items, edges, weights, *features)


def graph_arrays(graph: BipartiteGraph) -> dict:
    """Every array a graph holds, by name: the edge list, both CSRs and the features."""
    arrays = {"edges": graph.edges, "edge_weights": graph.edge_weights}
    for side in ("user", "item"):
        csr = graph._csr(side)
        for field in ("indptr", "indices", "weights", "degrees"):
            arrays[f"{side}_csr.{field}"] = getattr(csr, field)
        arrays[f"{side}_features"] = getattr(graph, f"{side}_features")
    return arrays


def assert_same_graph(got: BipartiteGraph, want: BipartiteGraph) -> None:
    """Same sizes, and every array equal in shape, dtype, write flag and bytes."""
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    want_arrays = graph_arrays(want)
    for name, a in graph_arrays(got).items():
        b = want_arrays[name]
        if b is None:
            assert a is None, name
            continue
        assert (a.shape, a.dtype, a.flags.writeable) == (b.shape, b.dtype, b.flags.writeable), name
        assert a.tobytes() == b.tobytes(), name


def embed_naive(module, graph: BipartiteGraph, ids, step: int, side: str, key=()):
    """``module``'s step-``step`` rows of ``ids`` by the per-occurrence
    recursion: every frontier occurrence embedded anew, with
    ``embed_block``'s draws for ``key``.  -1 ids give zero rows."""
    from repro.core.sage import _OTHER, _draw, _zero_padding
    from repro.nn.tensor import Tensor

    ids = np.asarray(ids)
    mask = ids >= 0
    safe = np.where(mask, ids, 0)
    if step == 0:
        base = module._features(graph, side)[safe].copy()
        base[~mask] = 0.0
        return Tensor(base)
    own_prev = embed_naive(module, graph, ids, step - 1, side, key)
    cfg = module.config
    fanout = cfg.neighbor_samples[cfg.num_steps - step]
    neigh = _draw(graph, side, safe, fanout, module.sample_seed, step, key)
    neigh[~mask] = -1
    flat = embed_naive(module, graph, neigh.reshape(-1), step - 1, _OTHER[side], key)
    return _zero_padding(module._layer(step, side, own_prev, flat, neigh >= 0), ids)


def weighted_sample_loop(sampler, vertices, fanout: int, side: str) -> np.ndarray:
    """``NeighborSampler``'s weighted draws, one row at a time: each
    non-isolated row takes ``rng.random(fanout)`` and inverts its own
    slice of the cumulative weights.  Isolated rows get -1."""
    vertices = np.asarray(vertices, dtype=np.int64)
    csr = sampler.graph._csr(side)
    cum = sampler._user_cum if side == "user" else sampler._item_cum
    out = np.full((len(vertices), fanout), -1, dtype=np.int64)
    for row, vertex in enumerate(vertices):
        start = csr.indptr[vertex]
        deg = csr.indptr[vertex + 1] - start
        if deg == 0:
            continue
        base = cum[start - 1] if start > 0 else 0.0
        slice_cum = cum[start : start + deg] - base
        draws = sampler.rng.random(fanout) * slice_cum[-1]
        picks = np.searchsorted(slice_cum, draws, side="right")
        out[row] = csr.indices[start + np.minimum(picks, deg - 1)]
    return out


def minibatch_kmeans_loop(points: np.ndarray, n_clusters: int, config, rng):
    """Mini-batch K-means moving one point at a time, with rate ``1/count``."""
    from repro.clustering.kmeans import KMeansResult, assign_to_centers, kmeans_plus_plus

    centers = kmeans_plus_plus(points, n_clusters, rng)
    counts = np.zeros(n_clusters)
    n_batches = max(1, config.max_iter)
    for _ in range(n_batches):
        batch_idx = rng.integers(len(points), size=min(config.batch_size, len(points)))
        batch = points[batch_idx]
        labels, _ = assign_to_centers(batch, centers)
        for label, point in zip(labels, batch):
            counts[label] += 1.0
            eta = 1.0 / counts[label]
            centers[label] = (1.0 - eta) * centers[label] + eta * point
    labels, inertia = assign_to_centers(points, centers)
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=n_batches)


def single_pass_kmeans_loop(points: np.ndarray, n_clusters: int, rng):
    """Single-pass K-means (Section III-D), one point at a time: each point
    joins its nearest centre and pulls it by ``1/count``."""
    from repro.clustering.kmeans import KMeansResult, assign_to_centers, kmeans_plus_plus

    centers = kmeans_plus_plus(points, n_clusters, rng)
    counts = np.ones(n_clusters)  # seeds count as one observation
    for idx in rng.permutation(len(points)):
        point = points[idx]
        diff = centers - point
        label = int(np.einsum("ij,ij->i", diff, diff).argmin())
        counts[label] += 1.0
        centers[label] += (point - centers[label]) / counts[label]
    labels, inertia = assign_to_centers(points, centers)
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=1)


def run_day_loop(env, recommender, visitors, slate_size: int = 10):
    """``OnlineEnvironment.run_day`` one impression at a time: a scalar
    uniform per impression and, on a click, one more for the purchase."""
    from repro.serving.environment import ServingMetrics

    if slate_size < 1:
        raise ValueError("slate_size must be >= 1")
    impressions = clicks = transactions = 0
    clicked_visitors: set[int] = set()
    for user in visitors:
        user = int(user)
        for item in recommender.recommend(user, slate_size):
            item = int(item)
            impressions += 1
            if env.rng.random() < env.truth.click_probability(user, item):
                clicks += 1
                clicked_visitors.add(user)
                if env.rng.random() < env.truth.purchase_probability(user, item):
                    transactions += 1
    return ServingMetrics(
        visitors=len(visitors),
        impressions=impressions,
        clicks=clicks,
        transactions=transactions,
        unique_click_visitors=len(clicked_visitors),
    )
