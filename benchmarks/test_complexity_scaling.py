"""Section III-D reproduction: the complexity analysis, measured.

The paper argues HiGNN scales because its two dominant operations are

* first-layer aggregation — O((M + N) * K1 * K2), linear in the vertex
  count at fixed fan-outs, and
* single-pass K-means — O(M * K_u + N * K_i), one pass over the data.

These benches time both kernels over a geometric size sweep and assert
near-linear growth (doubling the input less than ~triples the time,
allowing constant-factor noise), plus the fan-out product law for
aggregation.  They use the pytest-benchmark timer for the headline
kernel and wall-clock sweeps for the scaling law.
"""

import time

import numpy as np

from conftest import format_table
from repro.clustering.kmeans import kmeans
from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.nn.tensor import no_grad
from repro.utils.config import KMeansConfig, SageConfig
from repro.utils.rng import ensure_rng


def _embed_time(num_users, num_items, fanouts, repeats=3):
    graph = random_bipartite(
        num_users, num_items, num_edges=num_users * 8, feature_dim=16, rng=0
    )
    cfg = SageConfig(embedding_dim=16, neighbor_samples=fanouts)
    module = BipartiteGraphSAGE(16, 16, cfg, rng=0)
    users = np.arange(num_users)
    with no_grad():
        module.embed_users(graph, users)  # warm-up
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            module.embed_users(graph, users)
            best = min(best, time.perf_counter() - start)
    return best


def test_aggregation_scales_linearly_in_vertices(benchmark, report):
    sizes = [500, 1000, 2000, 4000]

    def sweep():
        return {n: _embed_time(n, n, (8, 4)) for n in sizes}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[f"{n} x {n}", f"{t * 1000:.1f} ms"] for n, t in times.items()]
    ratios = [times[sizes[i + 1]] / times[sizes[i]] for i in range(len(sizes) - 1)]
    rows.append(["growth per doubling", " / ".join(f"{r:.2f}x" for r in ratios)])
    report("complexity_aggregation", format_table(["Graph size", "Embed time"], rows))

    # Linear law: doubling vertices should not quadruple the time.
    for ratio in ratios:
        assert ratio < 3.5


def test_aggregation_scales_with_fanout_product(benchmark, report):
    def run():
        return _embed_time(800, 800, (4, 2)), _embed_time(800, 800, (8, 4))

    base, bigger = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "complexity_fanout",
        f"fanout (4,2): {base * 1000:.1f} ms\n"
        f"fanout (8,4): {bigger * 1000:.1f} ms\n"
        f"ratio: {bigger / base:.2f}x (K1*K2 grew 4x)",
    )
    # The fan-out product dominates: the bigger product costs more, but
    # less than the worst-case 4x once vectorisation is accounted for.
    assert bigger > base
    assert bigger / base < 8.0


def test_single_pass_kmeans_linear(benchmark, report):
    rng = ensure_rng(0)
    sizes = [2000, 4000, 8000]

    def sweep():
        times = {}
        for n in sizes:
            points = rng.normal(size=(n, 16))
            start = time.perf_counter()
            kmeans(points, 32, KMeansConfig(algorithm="single_pass"), rng=0)
            times[n] = time.perf_counter() - start
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[f"{n:,} points", f"{t * 1000:.1f} ms"] for n, t in times.items()]
    report("complexity_kmeans", format_table(["Input", "single-pass time"], rows))

    for i in range(len(sizes) - 1):
        assert times[sizes[i + 1]] / max(times[sizes[i]], 1e-9) < 3.5


def test_single_pass_faster_than_lloyd_at_scale(benchmark, report):
    def run():
        rng = ensure_rng(1)
        points = rng.normal(size=(6000, 16))
        start = time.perf_counter()
        kmeans(points, 64, KMeansConfig(algorithm="single_pass"), rng=0)
        single = time.perf_counter() - start
        start = time.perf_counter()
        kmeans(points, 64, KMeansConfig(algorithm="lloyd", max_iter=50), rng=0)
        return single, time.perf_counter() - start

    single, lloyd = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "complexity_kmeans_variants",
        f"single-pass: {single * 1000:.0f} ms\nlloyd: {lloyd * 1000:.0f} ms",
    )
    assert single < lloyd
