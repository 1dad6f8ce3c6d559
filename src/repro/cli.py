"""Command-line experiment runner.

Usage::

    python -m repro.cli stats   [--size small] [--seed 0]
    python -m repro.cli table3  [--size small] [--seed 0] [--methods ge,hignn,din]
    python -m repro.cli taxonomy [--size small] [--levels 3] [--seed 0]
    python -m repro.cli ab      [--size tiny]  [--days 2] [--seed 0]
    python -m repro.cli shard   [--users N] [--mode sharded|dense] [--json]
    python -m repro.cli serve   [--rounds 4] [--requests 400] [--json]
    python -m repro.cli lint    [PATHS ...] [--format json] [--write-baseline]

Each subcommand regenerates one of the paper's experiments at the
chosen scale and prints the result table.  For the full reproducible
record, run the benchmark suite instead (``pytest benchmarks/
--benchmark-only``).

Observability flags (see README "Observability"):

* ``--trace PATH`` runs the command under a :mod:`repro.obs` session,
  writes a Chrome trace-event JSON to PATH (open in Perfetto or
  ``chrome://tracing``) plus a flat dump next to it, and prints
  span/metrics summary tables.
* ``--metrics PATH`` dumps the final metrics snapshot (counters, gauges,
  percentile histograms) as JSON; composes with ``--trace``.
* ``--progress`` runs a :class:`repro.obs.ResourceMonitor` with a
  throttled single-line status renderer fed by library heartbeats —
  long ``shard``/training runs report vertices done, rate and ETA
  instead of staying silent.  With ``--trace``, the monitor's resource
  time-series lands in the Chrome trace as counter tracks.
* ``--log-level LEVEL`` / ``-v`` installs a stream handler on the
  ``repro`` logger so library progress logging (e.g.
  ``TrainConfig.log_every``) reaches the terminal.
* ``--workers N`` (every subcommand) sets the process-global worker
  count for the parallel hot paths (see README "Parallelism"); results
  are bitwise identical for any N given the same seed.

The hot-path micro-benchmark is ``benchmarks/hotpaths.py``; see README
"Performance".
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HiGNN reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    task_rows = "rows per worker task; does not change the output"

    stats = sub.add_parser("stats", help="Table I/II dataset statistics")
    _common(stats)

    table3 = sub.add_parser("table3", help="Table III CVR AUC comparison")
    _common(table3)
    table3.add_argument(
        "--methods",
        default="din,ge,hignn",
        help="comma-separated subset of: cgnn,din,ge,hup,hia,hignn",
    )
    table3.add_argument("--levels", type=int, default=3)
    table3.add_argument("--epochs", type=int, default=4)

    taxonomy = sub.add_parser("taxonomy", help="Table VII + Fig. 5 taxonomy build")
    _common(taxonomy)
    taxonomy.add_argument("--levels", type=int, default=3)

    ab = sub.add_parser("ab", help="Table IV simulated online A/B test")
    _common(ab)
    ab.add_argument("--days", type=int, default=2)
    ab.add_argument("--visitors", type=int, default=2000)

    shard = sub.add_parser(
        "shard",
        help="stream a sharded world, embed it out-of-core, report cost",
    )
    shard.add_argument("--users", type=int, default=100_000)
    shard.add_argument("--items", type=int, default=60_000)
    shard.add_argument("--clusters", type=int, default=64)
    shard.add_argument("--shards", type=int, default=8)
    shard.add_argument("--mean-degree", type=float, default=8.0)
    shard.add_argument("--dim", type=int, default=16)
    shard.add_argument("--batch-size", type=int, default=8192, help=task_rows)
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument(
        "--path",
        default=None,
        help="shard directory (default: a temp dir, removed afterwards)",
    )
    shard.add_argument(
        "--mode",
        default="sharded",
        choices=("sharded", "dense"),
        help="embed over shard blocks, or materialise and run dense",
    )
    shard.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print a machine-readable report (used by benchmarks/hotpaths.py)",
    )
    shard.add_argument(
        "--keep", action="store_true", help="leave the shard directory on disk"
    )
    _obs_flags(shard)
    _workers_flag(shard)
    _logging_flags(shard)

    serve = sub.add_parser(
        "serve",
        help="streaming serving demo: ingest edges, delta-refresh, serve slates",
    )
    serve.add_argument("--users", type=int, default=600)
    serve.add_argument("--items", type=int, default=400)
    serve.add_argument("--edges", type=int, default=3600)
    serve.add_argument("--rounds", type=int, default=4)
    serve.add_argument(
        "--requests", type=int, default=400, help="requests served per round"
    )
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument("--microbatch", type=int, default=64)
    serve.add_argument("--batch-size", type=int, default=256, help=task_rows)
    serve.add_argument(
        "--degrade-threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="recompute fraction above which a delta refresh degrades to "
        "a full pass (1.0 = never degrade)",
    )
    serve.add_argument(
        "--delta-edges",
        type=int,
        default=2,
        help="random interaction edges ingested per round",
    )
    serve.add_argument(
        "--new-users",
        type=int,
        default=1,
        help="cold-start users added per round (served via fallback)",
    )
    serve.add_argument(
        "--refresh-every",
        type=int,
        default=1,
        metavar="N",
        help="delta-refresh embeddings at the end of every N-th round "
        "(0 = never; rely on --refresh-threshold)",
    )
    serve.add_argument(
        "--refresh-threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="dirty fraction above which serve() auto-refreshes before "
        "answering (default: off)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print a machine-readable report",
    )
    _obs_flags(serve)
    _workers_flag(serve)
    _logging_flags(serve)

    lint = sub.add_parser(
        "lint", help="static analysis: determinism / fork-safety / obs hygiene"
    )
    from repro.lint.cli import configure_parser as _configure_lint

    _configure_lint(lint)

    return parser


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", default="small", choices=("tiny", "small", "default"))
    parser.add_argument("--seed", type=int, default=0)
    _obs_flags(parser)
    _workers_flag(parser)
    _logging_flags(parser)


def _obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a trace: Chrome trace-event JSON to PATH + summary tables",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="dump the final metrics snapshot (counters/gauges/percentile "
        "histograms) as JSON to PATH",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="sample resources in the background and render a throttled "
        "single-line progress status from library heartbeats",
    )


def _workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for parallel hot paths (1 = in-process)",
    )


def _logging_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="install a stream handler on the 'repro' logger at this level",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="shorthand: -v = info, -vv = debug",
    )


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.data import dataset_statistics, load_dataset, load_query_dataset

    print(f"{'dataset':<16} {'users':>8} {'items':>8} {'clicks':>10} {'density':>10}")
    for name in ("mini-taobao1", "mini-taobao2"):
        ds = load_dataset(name, size=args.size, seed=args.seed)
        s = dataset_statistics(ds)
        print(
            f"{name:<16} {int(s['users']):>8,} {int(s['items']):>8,} "
            f"{int(s['clicks']):>10,} {s['density']:>10.2e}"
        )
    q = load_query_dataset(size=args.size, seed=args.seed)
    clicks = float(q.graph.edge_weights.sum())
    print(
        f"{'mini-taobao3':<16} {q.num_queries:>8,} {q.num_items:>8,} "
        f"{int(clicks):>10,} {clicks / (q.num_queries * q.num_items):>10.2e}"
    )
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from repro.data import load_dataset
    from repro.prediction import ALL_METHODS, run_table3
    from repro.utils.config import HiGNNConfig, TrainConfig

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        print(f"unknown methods: {sorted(unknown)}", file=sys.stderr)
        return 2
    config = HiGNNConfig(
        levels=args.levels,
        train=TrainConfig(epochs=args.epochs, batch_size=512, learning_rate=3e-3),
    )
    for name in ("mini-taobao1", "mini-taobao2"):
        dataset = load_dataset(name, size=args.size, seed=args.seed)
        results = run_table3(dataset, config, methods=methods, seed=args.seed)
        row = "  ".join(f"{m}={results[m].auc:.4f}" for m in methods)
        print(f"{name}: {row}")
    return 0


def cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro.data import load_query_dataset
    from repro.taxonomy import (
        TaxonomyPipelineConfig,
        build_shoal_taxonomy,
        build_taxonomy,
        describe_taxonomy,
        evaluate_taxonomy,
        fit_query_item_hignn,
    )

    dataset = load_query_dataset(size=args.size, seed=args.seed)
    config = TaxonomyPipelineConfig(levels=args.levels, embedding_dim=16)
    hierarchy, _ = fit_query_item_hignn(dataset, config, rng=args.seed)
    taxonomy = build_taxonomy(hierarchy, dataset)
    describe_taxonomy(taxonomy, dataset)
    print(taxonomy.render(max_children=4, max_depth=3))
    counts = [len(taxonomy.at_level(l)) for l in range(1, taxonomy.num_levels + 1)]
    shoal = build_shoal_taxonomy(dataset, counts, rng=args.seed)
    for label, tax in (("HiGNN", taxonomy), ("SHOAL", shoal)):
        scores = evaluate_taxonomy(tax, dataset)
        print(
            f"{label}: levels={int(scores['levels'])} "
            f"accuracy={scores['accuracy']:.3f} diversity={scores['diversity']:.3f}"
        )
    return 0


def cmd_ab(args: argparse.Namespace) -> int:
    from repro.core.hignn import HiGNN
    from repro.data import load_dataset
    from repro.prediction import CVRTrainConfig, FeatureAssembler, train_cvr_model
    from repro.prediction.experiment import _prepare_train_samples, method_representations
    from repro.serving import (
        PopularityRecommender,
        ScoreTableRecommender,
        cvr_score_table,
        run_ab_test,
    )
    from repro.utils.config import HiGNNConfig, TrainConfig
    from repro.utils.rng import ensure_rng

    dataset = load_dataset("mini-taobao1", size=args.size, seed=args.seed)
    truth = dataset.ground_truth
    candidates = np.flatnonzero(truth.new_items)
    hierarchy = HiGNN(
        HiGNNConfig(levels=2, train=TrainConfig(epochs=5, batch_size=256)),
        seed=args.seed,
    ).fit(dataset.graph)
    user_repr, item_repr, inter = method_representations(hierarchy, "hignn")
    assembler = FeatureAssembler.for_dataset(
        dataset, user_repr, item_repr, interactions=inter
    )
    train = _prepare_train_samples(dataset, ensure_rng(args.seed))
    x, y = assembler.assemble_samples(train)
    model, _ = train_cvr_model(x, y, CVRTrainConfig(epochs=12), rng=args.seed)
    table = cvr_score_table(model, assembler, dataset.num_users, candidates)
    treatment = ScoreTableRecommender(table, candidates)
    clicks = np.zeros(dataset.num_items)
    np.add.at(clicks, dataset.log.items, dataset.log.clicks.astype(float))
    control = PopularityRecommender(clicks, candidates)
    report = run_ab_test(
        truth,
        control,
        treatment,
        num_days=args.days,
        visitors_per_day=args.visitors,
        slate_size=10,
        candidate_items=candidates,
        rng=args.seed,
    )
    print(report.render())
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    """Stream a cluster-structured world to shards and embed it.

    ``--mode sharded`` keeps the graph on disk end to end (the
    out-of-core path); ``--mode dense`` materialises it in memory and
    runs the dense layer-wise path on identical content.  Both print
    wall times, this process's *measured* peak RSS (sampled by a
    :class:`repro.obs.ResourceMonitor` over build + embed), and a
    checksum of the embeddings — equal checksums across modes certify
    the bitwise guarantee at scales where comparing arrays in one
    process would defeat the RSS measurement.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro import obs

    if args.path is not None:
        root, path = None, Path(args.path)
    else:
        root = Path(tempfile.mkdtemp(prefix="repro-shard-"))
        path = root / "world"
    try:
        monitor = obs.current_monitor()
        if monitor is not None:  # --progress (or a caller) already owns one
            return _shard_run(args, path, monitor)
        with obs.ResourceMonitor(tag="shard") as monitor:
            return _shard_run(args, path, monitor)
    finally:
        if root is not None and not args.keep:
            shutil.rmtree(root, ignore_errors=True)


def _shard_run(args: argparse.Namespace, path, monitor) -> int:
    """Body of :func:`cmd_shard` under an owned resource monitor."""
    import hashlib
    import json
    import time

    from repro.core.sage import BipartiteGraphSAGE
    from repro.data.synthetic import StreamedWorldConfig, stream_world_to_shards
    from repro.utils.config import SageConfig

    cfg = StreamedWorldConfig(
        num_users=args.users,
        num_items=args.items,
        num_clusters=args.clusters,
        mean_degree=args.mean_degree,
        feature_dim=args.dim,
    )
    t0 = time.perf_counter()
    store = stream_world_to_shards(path, cfg, num_shards=args.shards, seed=args.seed)
    build_s = time.perf_counter() - t0
    report = {
        "mode": args.mode,
        "num_users": store.num_users,
        "num_items": store.num_items,
        "num_edges": store.num_edges,
        "num_shards": store.num_shards,
        "workers": args.workers,
        "build_s": round(build_s, 3),
        "edges_shard_local": round(store.edges_shard_local, 4),
    }
    model = BipartiteGraphSAGE(
        args.dim,
        args.dim,
        SageConfig(embedding_dim=args.dim, neighbor_samples=(5, 3)),
        rng=args.seed,
    )
    if args.mode == "dense":
        graph = store.to_graph()
        store.close()
        t0 = time.perf_counter()
        z_u, z_i = model.embed_all(graph, batch_size=args.batch_size)
    else:
        t0 = time.perf_counter()
        z_u, z_i = model.embed_all(
            store, batch_size=args.batch_size, workers=args.workers
        )
    report["embed_s"] = round(time.perf_counter() - t0, 3)
    # Peak over build + embed only, measured by the background sampler
    # (with the process ru_maxrss high-water folded in): the checksum
    # below pages every output row back in, charging the cross-mode
    # verification convenience (not the out-of-core path) to this
    # process.
    monitor.sample_now()
    report["peak_rss_mb"] = round(monitor.peak_rss_mb, 1)
    report["peak_rss_source"] = "monitor"
    report["monitor_interval_s"] = monitor.interval_s
    report["monitor_samples"] = len(monitor.samples)
    digest = hashlib.sha256()
    for matrix in (z_u, z_i):
        for start in range(0, len(matrix), 65536):
            digest.update(
                np.ascontiguousarray(matrix[start : start + 65536]).tobytes()
            )
    report["checksum"] = digest.hexdigest()
    if args.keep:
        store.close()
        report["path"] = str(path)
    else:
        store.destroy()
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key:<18} {value}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a simulated streaming serving session.

    Each round ingests a few interaction edges and cold-start users,
    serves a zipf-tilted request stream through the micro-batched
    :class:`~repro.streaming.ServingFrontend` (cold users fall back to a
    popularity recommender), then delta-refreshes the embeddings so the
    next round serves them warm.  Prints one row per round plus a
    summary; ``--metrics`` additionally captures the serving latency
    histogram and cache counters.
    """
    import json
    import time

    from repro.core.sage import BipartiteGraphSAGE
    from repro.graph.generators import random_bipartite
    from repro.serving.recommend import PopularityRecommender
    from repro.streaming import ServingFrontend, StreamingEmbedder
    from repro.utils.config import SageConfig
    from repro.utils.rng import ensure_rng

    feature_dim = 8
    graph = random_bipartite(
        args.users, args.items, args.edges, feature_dim=feature_dim, rng=args.seed
    )
    model = BipartiteGraphSAGE(
        feature_dim,
        feature_dim,
        SageConfig(embedding_dim=16, neighbor_samples=(10, 5)),
        rng=args.seed,
    )
    embedder = StreamingEmbedder(
        model,
        sample_seed=args.seed,
        batch_size=args.batch_size,
        degrade_threshold=args.degrade_threshold,
    )
    degrees = np.zeros(args.items)
    np.add.at(degrees, graph.edges[:, 1], 1.0)
    fallback = PopularityRecommender(degrees, np.arange(args.items))
    frontend = ServingFrontend(
        graph,
        embedder,
        fallback=fallback,
        cache_size=args.cache_size,
        microbatch=args.microbatch,
        refresh_dirty_threshold=args.refresh_threshold,
    )
    t0 = time.perf_counter()
    frontend.warm(workers=args.workers)
    warm_s = time.perf_counter() - t0

    rng = ensure_rng(args.seed + 1)
    rounds: list[dict] = []
    total_requests = 0
    total_serve_s = 0.0
    for rnd in range(1, args.rounds + 1):
        if args.delta_edges:
            edges = np.stack(
                [
                    rng.integers(0, frontend.graph.num_users, args.delta_edges),
                    rng.integers(0, frontend.graph.num_items, args.delta_edges),
                ],
                axis=1,
            )
            frontend.ingest(edges)
        new_ids: list[int] = []
        if args.new_users:
            new_ids = frontend.graph.add_users(
                args.new_users,
                features=rng.normal(size=(args.new_users, feature_dim)),
            )
        users = (rng.zipf(1.5, size=args.requests) - 1) % args.users
        if new_ids:
            # Route the fresh users' first requests into this round so
            # the cold-start fallback path is actually exercised.
            users[: len(new_ids)] = new_ids
        warm_count = len(frontend.embedder.embeddings[0])
        cold_requests = int((users >= warm_count).sum())
        t0 = time.perf_counter()
        frontend.serve(users, args.k)
        serve_s = time.perf_counter() - t0
        total_requests += len(users)
        total_serve_s += serve_s
        row = {
            "round": rnd,
            "ingested_edges": int(args.delta_edges),
            "new_users": len(new_ids),
            "cold_requests": cold_requests,
            "requests": len(users),
            "serve_s": round(serve_s, 4),
            "req_per_sec": round(len(users) / serve_s, 1) if serve_s else None,
            "hit_rate": round(frontend.hit_rate, 3),
        }
        if args.refresh_every and rnd % args.refresh_every == 0:
            stats = frontend.refresh(workers=args.workers)
            row["refresh_mode"] = stats.mode
            row["recompute_fraction"] = round(stats.recompute_fraction, 3)
        rounds.append(row)

    report = {
        "graph": {
            "num_users": args.users,
            "num_items": args.items,
            "num_edges": args.edges,
        },
        "warm_s": round(warm_s, 4),
        "rounds": rounds,
        "total_requests": total_requests,
        "req_per_sec": (
            round(total_requests / total_serve_s, 1) if total_serve_s else None
        ),
        "hit_rate": round(frontend.hit_rate, 3),
        "cache_evictions": frontend.cache.evictions,
    }
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"warmed {args.users}x{args.items} graph ({args.edges} edges) "
        f"in {report['warm_s']}s"
    )
    header = (
        f"{'round':>5} {'edges':>6} {'new':>4} {'cold':>5} {'reqs':>6} "
        f"{'req/s':>10} {'hit':>6} {'refresh':>8} {'frac':>6}"
    )
    print(header)
    for row in rounds:
        print(
            f"{row['round']:>5} {row['ingested_edges']:>6} {row['new_users']:>4} "
            f"{row['cold_requests']:>5} {row['requests']:>6} "
            f"{row['req_per_sec']:>10,.0f} {row['hit_rate']:>6.3f} "
            f"{row.get('refresh_mode', '-'):>8} "
            f"{row.get('recompute_fraction', float('nan')):>6.3f}"
        )
    print(
        f"total: {total_requests} requests, {report['req_per_sec']:,.0f} req/s, "
        f"hit rate {report['hit_rate']:.3f}, "
        f"{report['cache_evictions']} evictions"
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import cmd_lint as run

    return run(args)


_COMMANDS = {
    "stats": cmd_stats,
    "table3": cmd_table3,
    "taxonomy": cmd_taxonomy,
    "ab": cmd_ab,
    "shard": cmd_shard,
    "serve": cmd_serve,
    "lint": cmd_lint,
}


def _setup_logging(args: argparse.Namespace) -> None:
    level = getattr(args, "log_level", None)
    if level is None and getattr(args, "verbose", 0):
        level = "debug" if args.verbose > 1 else "info"
    if level is not None:
        from repro.utils.logging import configure_logging

        configure_logging(level)


def _run_instrumented(args: argparse.Namespace) -> int:
    """Run the command under the requested obs plumbing.

    ``--trace``/``--metrics`` install a full obs session (tracer +
    registry) and export afterwards; ``--progress`` additionally runs an
    owned :class:`~repro.obs.ResourceMonitor` whose heartbeat renderer
    draws the status line and whose resource series rides into the
    Chrome trace as counter tracks.
    """
    import contextlib
    from pathlib import Path

    from repro import obs

    trace_path = Path(args.trace) if getattr(args, "trace", None) else None
    metrics_path = Path(args.metrics) if getattr(args, "metrics", None) else None
    with contextlib.ExitStack() as stack:
        session = None
        if trace_path is not None or metrics_path is not None:
            session = stack.enter_context(obs.observe())
        monitor = None
        if getattr(args, "progress", False):
            monitor = stack.enter_context(obs.ResourceMonitor(progress=True))
        if session is None:
            return _COMMANDS[args.command](args)
        with obs.span(
            f"cli.{args.command}",
            size=getattr(args, "size", None),
            seed=getattr(args, "seed", None),
        ):
            code = _COMMANDS[args.command](args)
        if monitor is not None:
            # Seal the series (and the peak-RSS gauge) before export.
            monitor.stop()
            session.monitor = monitor
        if trace_path is not None:
            session.write_chrome_trace(trace_path)
            flat_path = trace_path.with_name(trace_path.stem + ".flat.json")
            session.write_flat_trace(flat_path)
            print(f"\nwrote trace {trace_path} (flat dump: {flat_path})")
        if metrics_path is not None:
            obs.write_metrics_json(session.registry, metrics_path)
            print(f"\nwrote metrics {metrics_path}")
        if trace_path is not None:
            print("\n== span summary ==")
            print(session.span_summary())
            print("\n== metrics ==")
            print(session.metrics_summary())
    return code


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _setup_logging(args)
    workers = getattr(args, "workers", 1)
    if workers is not None and workers > 1:
        from repro.parallel import configure

        configure(workers=workers)
    if (
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "progress", False)
    ):
        return _run_instrumented(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
