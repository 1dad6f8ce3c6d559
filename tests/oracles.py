"""Test oracles: straightforward implementations the library is checked against."""

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
