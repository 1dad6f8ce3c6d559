"""Hot-path micro-benchmark harness (``BENCH_hotpaths.json``).

Usage::

    python benchmarks/hotpaths.py [--mode quick|full] [--seed N] [--repeats N]
                                  [--out PATH] [--workers N]
    python benchmarks/hotpaths.py --check [--baseline PATH] [--tolerance FRAC]

The paper's complexity analysis (Section III-D) puts the cost of one
HiGNN level in three loops: recursive neighbour embedding, neighbour
sampling, and K-means.  Each section times a library hot path
(``after``) against a reference (``before``); the per-occurrence and
per-point reference loops live in ``tests/oracles.py``, where the
equivalence tests check the library against them:

* ``embed_all`` — naive recursion vs layer-wise full-graph inference.
* ``train_epoch`` — one epoch with the naive recursion vs the block step.
* ``weighted_sampling`` — per-row loop vs the batched ``searchsorted``
  sampler.
* ``kmeans`` — per-point single-pass / mini-batch loops vs the chunked
  vectorised updates.
* ``parallel`` — the pool-backed hot paths at ``workers=1`` vs
  ``workers=N``.  A row is ``degraded`` when it asks for more workers
  than the process's usable cores (its CPU affinity mask).
* ``score_topk`` — eager full-table ``argsort`` vs the lazy top-k of
  :class:`ScoreTableRecommender`.
* ``shard`` — dense in-memory inference vs the out-of-core sharded path
  (``full`` mode adds a streamed million-vertex world, measured in
  subprocess children so each side's peak RSS is its own).
* ``serving`` — uncached vs LRU-cached request replay, full re-embed vs
  delta refresh, per-impression vs per-slate serving day.

All workloads are seeded, so repeated runs time identical work; only
the wall-clock figures vary with the machine.  Throughput columns come
from one more run of each ``after`` workload under a :mod:`repro.obs`
session.  Reports carry the git commit, ``cpu_count`` and the telemetry
stamp.  ``--check`` is the regression sentinel: :func:`check_report`
compares a fresh run against a recorded report row by row within a
fractional tolerance, skipping rows the baseline machine cannot
reproduce honestly (``degraded`` hosts, mismatched ``workers_effective``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
# Runs from any working directory without installing the package; the
# reference loops come from the test oracles.
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from repro.obs.monitor import DEFAULT_INTERVAL_S  # noqa: E402
from repro.utils.rng import ensure_rng  # noqa: E402
from tests.oracles import (  # noqa: E402
    embed_naive,
    minibatch_kmeans_loop,
    run_day_loop,
    single_pass_kmeans_loop,
    weighted_sample_loop,
)

SCHEMA = "repro/hotpath-bench/v6"
DEFAULT_REPORT = ROOT / "BENCH_hotpaths.json"

# Fractional slowdown of ``after_s`` tolerated by ``check_report``
# before a row counts as a regression.  Micro-benchmarks on shared CI
# hosts jitter hard, so the default band is deliberately wide — the
# sentinel exists to catch the 2x+ accidents, not 10% noise.
CHECK_TOLERANCE = 0.5
# Absolute slack added on top of the fractional band: rows timed in
# hundreds of microseconds flap on scheduler noise alone, so a delta
# smaller than this many seconds never regresses regardless of ratio.
CHECK_MIN_DELTA_S = 0.005

# (num_users, num_items, num_edges) per benchmarked graph.
GRAPH_SIZES: dict[str, list[tuple[int, int, int]]] = {
    "quick": [(300, 200, 1500), (900, 600, 5400)],
    "full": [(300, 200, 1500), (1500, 1000, 9000), (4000, 2500, 30000)],
}
# (n_points, dim, k) per K-means workload.
KMEANS_SIZES: dict[str, list[tuple[int, int, int]]] = {
    "quick": [(1500, 16, 24)],
    "full": [(1500, 16, 24), (6000, 32, 48)],
}
# (num_users, num_candidates, slate_k, queries) per top-k workload.
SCORE_SIZES: dict[str, list[tuple[int, int, int, int]]] = {
    "quick": [(400, 300, 10, 50)],
    "full": [(2000, 800, 10, 100)],
}
# (num_users, num_candidates, batch_users) for the parallel score-table row.
PARALLEL_SCORE_SIZES: dict[str, tuple[int, int, int]] = {
    "quick": (256, 48, 32),
    "full": (1024, 96, 64),
}
# Streamed-world specs per ``shard`` row; ``subprocess`` rows measure
# peak RSS in isolated children (and are the expensive part of ``full``).
SHARD_SIZES: dict[str, list[dict[str, Any]]] = {
    "quick": [
        {"users": 4000, "items": 2500, "clusters": 24, "shards": 4, "degree": 6.0}
    ],
    "full": [
        {"users": 4000, "items": 2500, "clusters": 24, "shards": 4, "degree": 6.0},
        {
            "users": 600_000,
            "items": 400_000,
            "clusters": 256,
            "shards": 8,
            "degree": 8.0,
            "subprocess": True,
        },
    ],
}
# Streaming serving workloads: graph shape, replayed request count and
# slate size, visitor-day size, and the size of the mutation delta the
# refresh row applies.  ``delta_edges`` is deliberately small — the row
# times the delta path itself, not a degradation to full recompute.
SERVING_SIZES: dict[str, dict[str, Any]] = {
    "quick": {
        "graph": (600, 400, 3600),
        "requests": 400,
        "k": 10,
        "visitors": 150,
        "delta_edges": 2,
        "refresh_batch": 128,
    },
    "full": {
        "graph": (3000, 2000, 18000),
        "requests": 2000,
        "k": 10,
        "visitors": 400,
        "delta_edges": 2,
        "refresh_batch": 256,
    },
}

__all__ = [
    "bench_hotpaths",
    "write_report",
    "load_report",
    "render_report",
    "check_report",
    "render_check_table",
    "git_commit",
    "SCHEMA",
    "DEFAULT_REPORT",
    "CHECK_TOLERANCE",
    "CHECK_MIN_DELTA_S",
    "dense_footprint_mb",
    "main",
]


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's
    count.  Rows asking for more workers are flagged ``degraded``."""
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """The current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def _counter_during(fn: Callable[[], Any], name: str) -> float:
    """Run ``fn`` once under an obs session; return counter ``name``.

    Used to derive throughput honestly: the counted run is separate
    from the timed runs, so instrumentation never perturbs the timings,
    while the work counts themselves are deterministic per workload.
    """
    from repro import obs

    with obs.observe() as session:
        fn()
    return session.counter(name)


def _graph(size: tuple[int, int, int], feature_dim: int, seed: int):
    from repro.graph.generators import random_bipartite

    users, items, edges = size
    return random_bipartite(users, items, edges, feature_dim=feature_dim, rng=seed)


def _graph_meta(size: tuple[int, int, int]) -> dict[str, int]:
    return {"num_users": size[0], "num_items": size[1], "num_edges": size[2]}


def _sage_module(graph, seed: int):
    from repro.core.sage import BipartiteGraphSAGE
    from repro.utils.config import SageConfig

    cfg = SageConfig(embedding_dim=16, neighbor_samples=(10, 5))
    return BipartiteGraphSAGE(
        graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=seed
    )


def _naive_embed_all(module, graph, batch_size: int = 2048) -> None:
    """Full-graph inference through the per-occurrence reference
    recursion ``embed_naive``, batch by batch (the "before" of both SAGE
    rows)."""
    from repro.nn.tensor import no_grad

    steps = module.config.num_steps
    with no_grad():
        for side, n in (("user", graph.num_users), ("item", graph.num_items)):
            for start in range(0, n, batch_size):
                ids = np.arange(start, min(start + batch_size, n))
                embed_naive(module, graph, ids, steps, side)


def _naive_block(module) -> None:
    """Route ``module.embed_block`` through ``embed_naive``: one
    independent per-occurrence recursion per request."""
    steps = module.config.num_steps

    def embed_block(graph, users=(), items=(), key=()):
        return (
            [embed_naive(module, graph, ids, steps, "user", key) for ids in users],
            [embed_naive(module, graph, ids, steps, "item", key) for ids in items],
        )

    module.embed_block = embed_block


def _bench_embed_all(mode: str, seed: int, repeats: int) -> list[dict[str, Any]]:
    """Full-graph inference: naive recursion (``before``) and the
    layer-wise pass (``after``)."""
    rows = []
    for size in GRAPH_SIZES[mode]:
        graph = _graph(size, feature_dim=8, seed=seed)
        module = _sage_module(graph, seed)
        before = _best_of(lambda: _naive_embed_all(module, graph), repeats)
        after = _best_of(lambda: module.embed_all(graph), repeats)
        vertices = _counter_during(
            lambda: module.embed_all(graph), "sage.vertices_embedded"
        )
        rows.append(
            {
                "graph": _graph_meta(size),
                "before_s": round(before, 6),
                "after_s": round(after, 6),
                "speedup": round(before / after, 2),
                "vertices_embedded": int(vertices),
                "vertices_per_sec": round(vertices / after, 1),
            }
        )
    return rows


def _bench_train_epoch(mode: str, seed: int, repeats: int) -> list[dict[str, Any]]:
    """One training epoch: ``before`` embeds each of a batch's four
    requests (positive/negative users/items) by its own naive recursion;
    ``after`` is the block step, which embeds them together with one
    neighbour draw per (side, step)."""
    from repro.core.trainer import SageTrainer
    from repro.utils.config import TrainConfig

    size = GRAPH_SIZES[mode][0]
    graph = _graph(size, feature_dim=8, seed=seed)
    tcfg = TrainConfig(epochs=1, batch_size=512)

    def run(naive: bool) -> None:
        module = _sage_module(graph, seed)
        if naive:
            _naive_block(module)
        SageTrainer(module, graph, tcfg, rng=seed).fit()

    before = _best_of(lambda: run(True), repeats)
    after = _best_of(lambda: run(False), repeats)
    edges = _counter_during(lambda: run(False), "train.edges_seen")
    return [
        {
            "graph": _graph_meta(size),
            "epochs": tcfg.epochs,
            "batch_size": tcfg.batch_size,
            "before_s": round(before, 6),
            "after_s": round(after, 6),
            "speedup": round(before / after, 2),
            "edges_seen": int(edges),
            "edges_per_sec": round(edges / after, 1),
        }
    ]


def _bench_weighted_sampling(mode: str, seed: int, repeats: int) -> list[dict[str, Any]]:
    from repro.graph.sampling import NeighborSampler

    rows = []
    fanout = 10
    for size in GRAPH_SIZES[mode]:
        graph = _graph(size, feature_dim=4, seed=seed)
        vertices = np.arange(graph.num_users)
        sampler = NeighborSampler(graph, rng=seed)
        before = _best_of(
            lambda: weighted_sample_loop(sampler, vertices, fanout, "user"), repeats
        )
        after = _best_of(
            lambda: sampler.sample_items_for_users(vertices, fanout), repeats
        )
        samples = _counter_during(
            lambda: sampler.sample_items_for_users(vertices, fanout),
            "sampler.samples_drawn",
        )
        rows.append(
            {
                "graph": _graph_meta(size),
                "batch": int(len(vertices)),
                "fanout": fanout,
                "before_s": round(before, 6),
                "after_s": round(after, 6),
                "speedup": round(before / after, 2),
                "samples_drawn": int(samples),
                "samples_per_sec": round(samples / after, 1),
            }
        )
    return rows


def _bench_kmeans(mode: str, seed: int, repeats: int) -> list[dict[str, Any]]:
    from repro.clustering.kmeans import _minibatch, _single_pass
    from repro.utils.config import KMeansConfig

    rows = []
    for n, dim, k in KMEANS_SIZES[mode]:
        points = ensure_rng(seed).normal(size=(n, dim))
        single_before = _best_of(
            lambda: single_pass_kmeans_loop(points, k, ensure_rng(seed)), repeats
        )
        single_after = _best_of(
            lambda: _single_pass(points, k, ensure_rng(seed)), repeats
        )
        rows.append(
            {
                "variant": "single_pass",
                "n": n,
                "dim": dim,
                "k": k,
                "before_s": round(single_before, 6),
                "after_s": round(single_after, 6),
                "speedup": round(single_before / single_after, 2),
            }
        )
        cfg = KMeansConfig(algorithm="minibatch", max_iter=20, batch_size=256)
        mb_before = _best_of(
            lambda: minibatch_kmeans_loop(points, k, cfg, ensure_rng(seed)), repeats
        )
        mb_after = _best_of(
            lambda: _minibatch(points, k, cfg, ensure_rng(seed)), repeats
        )
        rows.append(
            {
                "variant": "minibatch",
                "n": n,
                "dim": dim,
                "k": k,
                "before_s": round(mb_before, 6),
                "after_s": round(mb_after, 6),
                "speedup": round(mb_before / mb_after, 2),
            }
        )
    return rows


def _bench_score_topk(mode: str, seed: int, repeats: int) -> list[dict[str, Any]]:
    """Eager full-table ranking vs the lazy per-user top-k recommender."""
    from repro.serving.recommend import ScoreTableRecommender

    rows = []
    for num_users, n_cand, k, n_queries in SCORE_SIZES[mode]:
        rng = ensure_rng(seed)
        scores = rng.random((num_users, n_cand))
        candidates = np.arange(n_cand, dtype=np.int64)
        query_users = rng.integers(0, num_users, size=n_queries)

        def run_eager() -> None:
            ranked = np.argsort(-scores, axis=1, kind="mergesort")
            for user in query_users:
                candidates[ranked[user, :k]]

        def run_lazy() -> None:
            recommender = ScoreTableRecommender(scores, candidates)
            for user in query_users:
                recommender.recommend(int(user), k)

        before = _best_of(run_eager, repeats)
        after = _best_of(run_lazy, repeats)
        rows.append(
            {
                "variant": "score_topk",
                "n": num_users,
                "candidates": n_cand,
                "k": k,
                "queries": int(n_queries),
                "before_s": round(before, 6),
                "after_s": round(after, 6),
                "speedup": round(before / after, 2),
            }
        )
    return rows


def _bench_parallel(
    mode: str, seed: int, repeats: int, workers: int
) -> list[dict[str, Any]]:
    """The pool-backed hot paths at ``workers=1`` vs ``workers=N``.

    Same seeded workload both times — the outputs are bitwise equal by
    design, so the rows compare cost only.  Rows asking for more workers
    than this process may run on (``os.sched_getaffinity``) are flagged
    ``degraded``: the pool oversubscribes the cores, the timing follows
    the scheduler, and :func:`check_report` skips the row.
    """
    from repro.clustering.kmeans import kmeans
    from repro.prediction.cvr_model import CVRModel
    from repro.prediction.features import FeatureAssembler
    from repro.serving.pipeline import cvr_score_table
    from repro.utils.config import KMeansConfig

    usable = _usable_cores()
    workers_effective = min(workers, usable)
    degraded = workers > usable
    rows = []

    size = GRAPH_SIZES[mode][-1]
    graph = _graph(size, feature_dim=8, seed=seed)
    module = _sage_module(graph, seed)
    serial = _best_of(
        lambda: module.embed_all(graph, batch_size=256, workers=1), repeats
    )
    parallel = _best_of(
        lambda: module.embed_all(graph, batch_size=256, workers=workers), repeats
    )
    rows.append(
        {
            "variant": "embed_all_layerwise",
            "graph": _graph_meta(size),
            "workers": workers,
            "workers_effective": workers_effective,
            "degraded": degraded,
            "before_s": round(serial, 6),
            "after_s": round(parallel, 6),
            "speedup": round(serial / parallel, 2),
        }
    )

    n, dim, k = KMEANS_SIZES[mode][-1]
    points = ensure_rng(seed).normal(size=(n, dim))
    cfg = KMeansConfig(algorithm="lloyd", n_init=4, max_iter=15)
    serial = _best_of(
        lambda: kmeans(points, k, cfg, rng=ensure_rng(seed), workers=1),
        repeats,
    )
    parallel = _best_of(
        lambda: kmeans(points, k, cfg, rng=ensure_rng(seed), workers=workers),
        repeats,
    )
    rows.append(
        {
            "variant": "kmeans_restarts",
            "n": n,
            "dim": dim,
            "k": k,
            "n_init": cfg.n_init,
            "workers": workers,
            "workers_effective": workers_effective,
            "degraded": degraded,
            "before_s": round(serial, 6),
            "after_s": round(parallel, 6),
            "speedup": round(serial / parallel, 2),
        }
    )

    num_users, n_cand, batch_users = PARALLEL_SCORE_SIZES[mode]
    rng = ensure_rng(seed)
    assembler = FeatureAssembler(
        rng.normal(size=(num_users, 8)), rng.normal(size=(n_cand, 8))
    )
    model = CVRModel(assembler.feature_dim, hidden=(32, 16), rng=seed)
    candidates = np.arange(n_cand, dtype=np.int64)
    serial = _best_of(
        lambda: cvr_score_table(
            model, assembler, num_users, candidates, batch_users, workers=1
        ),
        repeats,
    )
    parallel = _best_of(
        lambda: cvr_score_table(
            model, assembler, num_users, candidates, batch_users, workers=workers
        ),
        repeats,
    )
    rows.append(
        {
            "variant": "cvr_score_table",
            "n": num_users,
            "candidates": n_cand,
            "k": n_cand,
            "workers": workers,
            "workers_effective": workers_effective,
            "degraded": degraded,
            "before_s": round(serial, 6),
            "after_s": round(parallel, 6),
            "speedup": round(serial / parallel, 2),
        }
    )
    return rows


def dense_footprint_mb(
    num_users: int, num_items: int, num_edges: int, dim: int
) -> float:
    """Analytic MB an in-memory ``BipartiteGraph`` of this shape holds.

    Edge list (E x 2 int64) + both CSR directions (indices + weights
    per edge, indptr per vertex) + float64 features on both sides —
    the baseline the sharded store's peak RSS is judged against.
    """
    edge_list = num_edges * 2 * 8
    csr = 2 * num_edges * (8 + 8) + (num_users + num_items + 2) * 8
    features = (num_users + num_items) * dim * 8
    return (edge_list + csr + features) / 2**20


def _shard_model(dim: int, seed: int):
    from repro.core.sage import BipartiteGraphSAGE
    from repro.utils.config import SageConfig

    cfg = SageConfig(embedding_dim=dim, neighbor_samples=(5, 3))
    return BipartiteGraphSAGE(dim, dim, cfg, rng=seed)


def _run_shard_child(run_mode: str, spec: dict[str, Any], seed: int, workers: int):
    """One ``repro shard --json`` subprocess; returns its parsed report.

    Children exist so each side's ``ru_maxrss`` is clean: the dense
    child materialises the full graph, the sharded child only ever maps
    shard blocks, and neither inherits the other's peak.
    """
    import sys

    import repro

    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "shard",
        "--json",
        "--mode",
        run_mode,
        "--users",
        str(spec["users"]),
        "--items",
        str(spec["items"]),
        "--clusters",
        str(spec["clusters"]),
        "--shards",
        str(spec["shards"]),
        "--mean-degree",
        str(spec["degree"]),
        "--seed",
        str(seed),
        "--workers",
        str(workers),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=3600
    )
    if out.returncode != 0:
        raise RuntimeError(f"shard child ({run_mode}) failed:\n{out.stderr}")
    return json.loads(out.stdout)


def _bench_shard(
    mode: str, seed: int, repeats: int, workers: int
) -> list[dict[str, Any]]:
    """Dense in-memory inference vs the out-of-core sharded path.

    The smoke row runs in-process (same world via ``to_graph``, bitwise
    compared).  ``subprocess`` rows stream a million-vertex world and
    measure each side's peak RSS in an isolated child; equality there is
    checked through embedding checksums.
    """
    import shutil
    import tempfile

    from repro.data.synthetic import StreamedWorldConfig, stream_world_to_shards

    dim = 16
    rows = []
    for spec in SHARD_SIZES[mode]:
        if spec.get("subprocess"):
            sharded = _run_shard_child("sharded", spec, seed, workers)
            dense = _run_shard_child("dense", spec, seed, workers)
            rows.append(
                {
                    "variant": "streamed_world_out_of_core",
                    "graph": {
                        "num_users": spec["users"],
                        "num_items": spec["items"],
                        "num_edges": sharded["num_edges"],
                    },
                    "num_shards": spec["shards"],
                    "workers": workers,
                    "degraded": workers > _usable_cores(),
                    "build_s": sharded["build_s"],
                    "edges_shard_local": sharded["edges_shard_local"],
                    "before_s": dense["embed_s"],
                    "after_s": sharded["embed_s"],
                    "speedup": round(dense["embed_s"] / sharded["embed_s"], 2),
                    "bitwise_equal": sharded["checksum"] == dense["checksum"],
                    "peak_rss_mb": sharded["peak_rss_mb"],
                    "peak_rss_source": sharded.get("peak_rss_source", "rusage"),
                    "dense_peak_rss_mb": dense["peak_rss_mb"],
                    "dense_edge_list_mb": round(
                        dense_footprint_mb(
                            spec["users"], spec["items"], sharded["num_edges"], dim
                        ),
                        1,
                    ),
                }
            )
            continue

        cfg = StreamedWorldConfig(
            num_users=spec["users"],
            num_items=spec["items"],
            num_clusters=spec["clusters"],
            mean_degree=spec["degree"],
            feature_dim=dim,
        )
        work = Path(tempfile.mkdtemp(prefix="repro-bench-shard-"))
        try:
            t0 = time.perf_counter()
            store = stream_world_to_shards(
                work / "world", cfg, num_shards=spec["shards"], seed=seed
            )
            build = time.perf_counter() - t0
            with store:
                graph = store.to_graph()
                before = _best_of(
                    lambda: _shard_model(dim, seed).embed_all(graph, batch_size=1024),
                    repeats,
                )
                after = _best_of(
                    lambda: _shard_model(dim, seed).embed_all(
                        store, batch_size=1024, workers=workers
                    ),
                    repeats,
                )
                zu_d, zi_d = _shard_model(dim, seed).embed_all(graph, batch_size=1024)
                zu_s, zi_s = _shard_model(dim, seed).embed_all(
                    store, batch_size=1024, workers=workers
                )
                bitwise = np.array_equal(
                    np.asarray(zu_d), np.asarray(zu_s)
                ) and np.array_equal(np.asarray(zi_d), np.asarray(zi_s))
                del zu_s, zi_s
                vertices = _counter_during(
                    lambda: _shard_model(dim, seed).embed_all(
                        store, batch_size=1024, workers=workers
                    ),
                    "sage.vertices_embedded",
                )
                rows.append(
                    {
                        "variant": "embed_sharded_smoke",
                        "graph": {
                            "num_users": store.num_users,
                            "num_items": store.num_items,
                            "num_edges": store.num_edges,
                        },
                        "num_shards": store.num_shards,
                        "workers": workers,
                        "degraded": workers > _usable_cores(),
                        "build_s": round(build, 6),
                        "edges_shard_local": round(store.edges_shard_local, 4),
                        "before_s": round(before, 6),
                        "after_s": round(after, 6),
                        "speedup": round(before / after, 2),
                        "bitwise_equal": bool(bitwise),
                        "vertices_embedded": int(vertices),
                        "vertices_per_sec": round(vertices / after, 1),
                    }
                )
        finally:
            shutil.rmtree(work, ignore_errors=True)
            from repro.shard.storage import forget_shard_dir

            forget_shard_dir(work / "world")
    return rows


def _bench_serving(mode: str, seed: int, repeats: int) -> list[dict[str, Any]]:
    """The streaming serving stack: replay, delta refresh, serving day."""
    from repro import obs
    from repro.data.synthetic import TaobaoGenerator, WorldConfig
    from repro.serving.environment import OnlineEnvironment
    from repro.serving.recommend import PopularityRecommender
    from repro.streaming import (
        IncrementalBipartiteGraph,
        ServingFrontend,
        StreamingEmbedder,
    )

    spec = SERVING_SIZES[mode]
    size = spec["graph"]
    requests, k = int(spec["requests"]), int(spec["k"])
    graph = _graph(size, feature_dim=8, seed=seed)
    module = _sage_module(graph, seed)
    meta = _graph_meta(size)
    rows: list[dict[str, Any]] = []

    # --- replay: uncached vs LRU-cached request loop -------------------
    # Zipf-tilted visitor stream so repeat visitors exist (that is what
    # a slate cache exists for); seeded, so both arms serve the same
    # requests in the same order.
    stream_rng = ensure_rng(seed)
    users = (stream_rng.zipf(1.5, size=requests) - 1) % size[0]

    def frontend(cache_size: int):
        fe = ServingFrontend(
            graph,
            StreamingEmbedder(module, sample_seed=seed),
            cache_size=cache_size,
            microbatch=64,
        )
        fe.warm()
        return fe

    uncached = frontend(0)
    cached = frontend(4096)
    before = _best_of(lambda: uncached.serve(users, k), repeats)
    after = _best_of(lambda: cached.serve(users, k), repeats)
    with obs.observe() as session:
        cached.serve(users, k)
    hist = session.registry.snapshot()["histograms"]["serving.latency_ms"]
    rows.append(
        {
            "graph": meta,
            "variant": "replay",
            "requests": requests,
            "k": k,
            "before_s": round(before, 6),
            "after_s": round(after, 6),
            "speedup": round(before / after, 2),
            "req_per_sec": round(requests / after, 1),
            "p50_ms": round(hist["p50"], 4),
            "p99_ms": round(hist["p99"], 4),
            "hit_rate": round(cached.hit_rate, 3),
        }
    )

    # --- delta refresh vs full re-embed of the mutated graph ----------
    refresh_bs = int(spec["refresh_batch"])
    embedder = StreamingEmbedder(
        module, sample_seed=seed, batch_size=refresh_bs, degrade_threshold=1.0
    )
    inc = IncrementalBipartiteGraph(graph)
    embedder.full_embed(inc.graph)
    delta = int(spec["delta_edges"])
    delta_rng = ensure_rng(seed + 1)
    inc.add_edges(
        np.column_stack(
            [
                delta_rng.integers(0, size[0], delta),
                delta_rng.integers(0, size[1], delta),
            ]
        )
    )
    mutated = inc.graph
    dirty_u, dirty_i = inc.dirty_users, inc.dirty_items
    # refresh() replaces (never mutates) the cached per-step matrices,
    # so resetting the two references replays the same delta each run.
    base_h, base_shape = embedder._h, embedder._shape

    def run_refresh() -> None:
        embedder._h, embedder._shape = base_h, base_shape
        embedder.refresh(mutated, dirty_u, dirty_i)

    before = _best_of(
        lambda: StreamingEmbedder(
            module, sample_seed=seed, batch_size=refresh_bs
        ).full_embed(mutated),
        repeats,
    )
    after = _best_of(run_refresh, repeats)
    stats = embedder.last_stats
    rows.append(
        {
            "graph": meta,
            "variant": "delta_refresh",
            "delta_edges": delta,
            "batch": refresh_bs,
            "before_s": round(before, 6),
            "after_s": round(after, 6),
            "speedup": round(before / after, 2),
            "refresh_mode": stats.mode,
            "rows_recomputed": int(stats.rows_recomputed),
            "recompute_fraction": round(stats.recompute_fraction, 3),
        }
    )

    # --- serving day: per-impression loop vs per-slate vectorised -----
    truth = TaobaoGenerator(
        WorldConfig(num_users=size[0], num_items=size[1]), seed=seed
    ).truth
    visitors = ensure_rng(seed + 2).integers(0, size[0], int(spec["visitors"]))
    recommender = PopularityRecommender(
        ensure_rng(seed + 3).random(size[1]), np.arange(size[1])
    )

    def day(vectorised: bool) -> None:
        env = OnlineEnvironment(truth, rng=seed)
        if vectorised:
            env.run_day(recommender, visitors, slate_size=k)
        else:
            run_day_loop(env, recommender, visitors, slate_size=k)

    before = _best_of(lambda: day(False), repeats)
    after = _best_of(lambda: day(True), repeats)
    rows.append(
        {
            "variant": "run_day",
            "n": int(spec["visitors"]),
            "k": k,
            "before_s": round(before, 6),
            "after_s": round(after, 6),
            "speedup": round(before / after, 2),
        }
    )
    return rows


def bench_hotpaths(
    mode: str = "quick", seed: int = 0, repeats: int = 3, workers: int = 4
) -> dict[str, Any]:
    """Time every hot path and return the report dict.

    ``mode`` selects the workload grid (``quick`` for CI smoke, ``full``
    for the tracked record); ``seed`` fixes every workload so runs are
    comparable; ``repeats`` takes the best of N timings; ``workers`` is
    the pool size the ``parallel`` section compares against serial.
    """
    if mode not in GRAPH_SIZES:
        raise ValueError(f"unknown bench mode {mode!r} (use 'quick' or 'full')")
    return {
        "schema": SCHEMA,
        "git_commit": git_commit(),
        "mode": mode,
        "seed": seed,
        "repeats": repeats,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "telemetry": {
            "sampler_interval_s": DEFAULT_INTERVAL_S,
            "peak_rss_source": "monitor",
        },
        "benchmarks": {
            "embed_all": _bench_embed_all(mode, seed, repeats),
            "train_epoch": _bench_train_epoch(mode, seed, repeats),
            "weighted_sampling": _bench_weighted_sampling(mode, seed, repeats),
            "kmeans": _bench_kmeans(mode, seed, repeats),
            "parallel": _bench_parallel(mode, seed, repeats, workers),
            "score_topk": _bench_score_topk(mode, seed, repeats),
            "shard": _bench_shard(mode, seed, repeats, workers),
            "serving": _bench_serving(mode, seed, repeats),
        },
    }


def write_report(report: dict[str, Any], path: str | Path = DEFAULT_REPORT) -> Path:
    """Write ``report`` as stable, human-diffable JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path = DEFAULT_REPORT) -> dict[str, Any]:
    """Read a report; any schema but :data:`SCHEMA` is rejected."""
    report = json.loads(Path(path).read_text())
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"unknown bench report schema {schema!r} in {path}")
    return report


def render_report(report: dict[str, Any]) -> str:
    """Plain-text table of every benchmark row (before/after/speedup)."""
    commit = report.get("git_commit")
    cpus = report.get("cpu_count")
    lines = [
        f"hot-path benchmark — mode={report['mode']} seed={report['seed']} "
        f"repeats={report['repeats']} (numpy {report['numpy']}, "
        f"commit {commit[:12] if commit else 'unknown'}"
        + (f", cpus={cpus}" if cpus else "")
        + ")",
        f"{'benchmark':<20} {'workload':<28} {'before':>10} {'after':>10} "
        f"{'speedup':>8} {'throughput':>16}",
    ]
    for name, rows in report["benchmarks"].items():
        for row in rows:
            if "graph" in row:
                g = row["graph"]
                workload = f"{g['num_users']}x{g['num_items']} e={g['num_edges']}"
            else:
                workload = f"{row['variant']} n={row['n']} k={row['k']}"
            throughput = ""
            for key, unit in (
                ("vertices_per_sec", "vert/s"),
                ("samples_per_sec", "smp/s"),
                ("edges_per_sec", "edge/s"),
            ):
                if key in row:
                    throughput = f"{row[key]:,.0f} {unit}"
                    break
            lines.append(
                f"{name:<20} {workload:<28} {row['before_s']:>9.4f}s "
                f"{row['after_s']:>9.4f}s {row['speedup']:>7.2f}x {throughput:>16}"
            )
    return "\n".join(lines)


# Row fields that identify *what* was benchmarked (as opposed to the
# measurements).  Together with the section name and graph shape they
# form the key ``check_report`` matches rows on.
_IDENTITY_FIELDS = (
    "variant",
    "n",
    "dim",
    "k",
    "candidates",
    "queries",
    "batch",
    "fanout",
    "epochs",
    "batch_size",
    "n_init",
    "num_shards",
    "workers",
    "requests",
    "delta_edges",
)


def _row_key(section: str, row: dict[str, Any]) -> str:
    """Stable identity of one benchmark row across runs."""
    parts = [section]
    graph = row.get("graph")
    if graph is not None:
        parts.append(
            f"g={graph['num_users']}x{graph['num_items']}e{graph['num_edges']}"
        )
    for field in _IDENTITY_FIELDS:
        if field in row:
            parts.append(f"{field}={row[field]}")
    return " ".join(parts)


def _row_skip_reason(
    current: dict[str, Any], baseline: dict[str, Any]
) -> str | None:
    """Why this row pair cannot be compared honestly, or None."""
    if current.get("degraded") or baseline.get("degraded"):
        return "degraded host"
    cur_eff = current.get("workers_effective")
    base_eff = baseline.get("workers_effective")
    if cur_eff != base_eff:
        return f"workers_effective {base_eff} -> {cur_eff}"
    return None


def check_report(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = CHECK_TOLERANCE,
    min_delta_s: float = CHECK_MIN_DELTA_S,
) -> dict[str, Any]:
    """Compare a fresh run against a recorded baseline, row by row.

    Rows are matched by section plus identity fields (graph shape,
    variant, n/k/workers, ...), so quick-vs-full grid differences simply
    leave rows unmatched (``new``/``missing`` status) rather than
    failing.  A matched row regresses when its ``after_s`` exceeds the
    baseline by more than ``tolerance`` (fractional) *and* by more than
    ``min_delta_s`` absolute — the floor keeps sub-millisecond rows from
    flapping on scheduler noise.  Rows whose machines cannot be compared
    honestly are skipped, never failed: a ``degraded`` flag on either
    side (more workers than usable cores) or a ``workers_effective``
    mismatch means the baseline's parallel timings are not reproducible
    here.

    Returns a dict with per-row status entries (``rows``), the keys that
    regressed (``regressions``), and checked/skipped/unmatched tallies.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base_rows = {
        _row_key(section, row): row
        for section, rows in baseline.get("benchmarks", {}).items()
        for row in rows
    }
    entries: list[dict[str, Any]] = []
    regressions: list[str] = []
    checked = skipped = unmatched = 0
    for section, rows in current.get("benchmarks", {}).items():
        for row in rows:
            key = _row_key(section, row)
            base = base_rows.pop(key, None)
            entry: dict[str, Any] = {
                "key": key,
                "current_s": row.get("after_s"),
                "baseline_s": base.get("after_s") if base else None,
            }
            if base is None:
                entry["status"] = "new"
                unmatched += 1
            else:
                reason = _row_skip_reason(row, base)
                cur_s, base_s = row["after_s"], base["after_s"]
                if base_s:
                    entry["delta_pct"] = round(100.0 * (cur_s / base_s - 1), 1)
                if reason is not None:
                    entry["status"] = "skipped"
                    entry["reason"] = reason
                    skipped += 1
                elif (
                    cur_s > base_s * (1.0 + tolerance)
                    and cur_s - base_s > min_delta_s
                ):
                    entry["status"] = "regression"
                    regressions.append(key)
                    checked += 1
                else:
                    entry["status"] = "ok"
                    checked += 1
            entries.append(entry)
    for key, base in base_rows.items():
        entries.append(
            {
                "key": key,
                "current_s": None,
                "baseline_s": base.get("after_s"),
                "status": "missing",
            }
        )
        unmatched += 1
    return {
        "tolerance": tolerance,
        "min_delta_s": min_delta_s,
        "baseline_commit": baseline.get("git_commit"),
        "rows": entries,
        "regressions": regressions,
        "checked": checked,
        "skipped": skipped,
        "unmatched": unmatched,
    }


def render_check_table(result: dict[str, Any]) -> str:
    """Plain-text delta table for one :func:`check_report` result."""
    commit = result.get("baseline_commit")
    lines = [
        f"bench --check — tolerance +{result['tolerance'] * 100:.0f}% "
        f"(abs floor {result['min_delta_s'] * 1000:.1f} ms, baseline commit "
        f"{commit[:12] if commit else 'unknown'})",
        f"{'status':<12} {'workload':<52} {'baseline':>10} {'current':>10} "
        f"{'delta':>8}",
    ]
    for entry in sorted(
        result["rows"], key=lambda e: (e["status"] != "regression", e["key"])
    ):
        base_s = entry.get("baseline_s")
        cur_s = entry.get("current_s")
        delta = entry.get("delta_pct")
        status = entry["status"].upper() if entry["status"] == "regression" else entry["status"]
        if entry.get("reason"):
            status = f"{status} ({entry['reason']})"
        lines.append(
            f"{status:<12} {entry['key']:<52} "
            f"{f'{base_s:.4f}s' if base_s is not None else '-':>10} "
            f"{f'{cur_s:.4f}s' if cur_s is not None else '-':>10} "
            f"{f'{delta:+.1f}%' if delta is not None else '':>8}"
        )
    lines.append(
        f"{result['checked']} checked, {result['skipped']} skipped, "
        f"{result['unmatched']} unmatched, "
        f"{len(result['regressions'])} regression(s)"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotpaths", description="hot-path perf benchmark (writes BENCH_hotpaths.json)"
    )
    parser.add_argument("--mode", default="quick", choices=("quick", "full"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(DEFAULT_REPORT))
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for every pool-backed path; the parallel "
        "section compares 1 against N (4 when N is 1)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression sentinel: compare against the baseline report "
        "instead of overwriting it; exit 1 on regression",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline report for --check (default: the --out path)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=CHECK_TOLERANCE,
        metavar="FRAC",
        help="fractional slowdown tolerated by --check before a row "
        "counts as a regression (default 0.5 = 50%%)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code (2: unreadable baseline)."""
    args = build_parser().parse_args(argv)
    if args.workers > 1:
        from repro.parallel import configure

        configure(workers=args.workers)
    # The parallel section compares serial vs N workers; default the
    # comparison to 4 when --workers was left at 1.
    workers = args.workers if args.workers > 1 else 4
    if args.check:
        baseline_path = args.baseline or args.out
        try:
            baseline = load_report(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
    report = bench_hotpaths(args.mode, seed=args.seed, repeats=args.repeats, workers=workers)
    if not args.check:
        print(render_report(report))
        print(f"wrote {write_report(report, args.out)}")
        return 0
    result = check_report(report, baseline, tolerance=args.tolerance)
    print(render_check_table(result))
    if result["regressions"]:
        print(
            f"\nREGRESSION: {len(result['regressions'])} row(s) slower "
            f"than baseline {baseline_path} beyond tolerance",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: no regressions vs {baseline_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
