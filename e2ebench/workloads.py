"""The three workloads: what each sets up, measures and checks.

Every workload drives public entry points only, from one process, with
no more worker processes than usable cores.  ``run_<name>`` returns an
:class:`Outcome`; :mod:`run` turns it into the result line.  Sizes live
in :data:`SIZES` so the tests can run the same code at toy scale.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from harness import (
    PeakMemory,
    percentile,
    poisson_schedule,
    run_open_loop,
    tail_percentile,
    usable_cores,
)
from layers import LayerProbe, serving_layers

SETUP_REPEATS = 5  # set-up runs per untraced run; setup_s is their median

SIZES = {
    "full": {
        "pipeline": {
            "dataset": "small",
            "levels": 3,
            "sage_epochs": 5,
            "cvr_epochs": None,
            "auc_floor": checks.AUC_FLOOR,
        },
        "world": {"users": 50_000, "items": 20_000, "clusters": 64, "degree": 8.0},
        "serve": {"dim": 32, "k": 20, "zipf": 1.2, "warm_requests": 20_000, "oracle_samples": 64},
        # Write traffic in the proportions of the program's own streaming
        # demo (``repro serve`` defaults: 400 requests and 2 new edges per
        # round, one refresh per round), which is also the 2-edge delta of
        # the serving rows in ``repro bench``.  The edge rate is the one
        # free choice: one refresh every 2 s (see README).
        "ingest": {"holdout": 200, "rate": 1.0, "refresh_every": 2, "reads_per_edge": 200},
        "bulk": {"users": 300_000, "items": 200_000, "clusters": 64, "degree": 8.0, "dim": 32},
    },
    "tiny": {
        # One epoch on 120 users is barely trained; only chance is a failure.
        "pipeline": {"dataset": "tiny", "levels": 2, "sage_epochs": 1, "cvr_epochs": 2, "auc_floor": 0.5},
        "world": {"users": 2_000, "items": 1_000, "clusters": 8, "degree": 6.0},
        "serve": {"dim": 8, "k": 10, "zipf": 1.2, "warm_requests": 500, "oracle_samples": 16},
        "ingest": {"holdout": 40, "rate": 10.0, "refresh_every": 2, "reads_per_edge": 50},
        "bulk": {"users": 3_000, "items": 2_000, "clusters": 8, "degree": 6.0, "dim": 8},
    },
}
FEATURE_DIM = 16
NUM_SHARDS = 4


@dataclass
class Outcome:
    """One run of one workload."""

    metrics: dict[str, float]  # end-to-end (untraced) or per-layer (traced)
    detail: dict[str, float]  # the workload's own figures, by their own names
    attempted: int
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    workers: int = 1


def _median_setup(build, repeats: int):
    """Run ``build()`` ``repeats`` times; keep the last result.

    Collects the garbage set-up left behind afterwards, so the first
    full collection does not land inside the measured window.
    """
    times, built = [], None
    for rep in range(repeats):
        built = None  # release the previous copy before building again
        t0 = time.perf_counter()
        built = build(rep)
        times.append(time.perf_counter() - t0)
    gc.collect()
    return built, statistics.median(times)


def _e2e(setup_s, peak_mb, latency_ms) -> dict[str, float]:
    return {"setup_s": setup_s, "peak_rss_mb": peak_mb, "latency_ms": latency_ms}


def _p90(latency_ms) -> float:
    return tail_percentile(latency_ms, 90.0)


# ---------------------------------------------------------------------------
# pipeline: Algorithm 1 + the CVR head, graph to scored test set
# ---------------------------------------------------------------------------
def _pipeline_configs(spec):
    from repro import HiGNNConfig, TrainConfig
    from repro.prediction.cvr_model import CVRTrainConfig

    hcfg = HiGNNConfig(levels=spec["levels"], train=TrainConfig(epochs=spec["sage_epochs"]))
    cvr = CVRTrainConfig() if spec["cvr_epochs"] is None else CVRTrainConfig(epochs=spec["cvr_epochs"])
    return hcfg, cvr


def _one_pipeline(dataset, hcfg, cvr, seed):
    from repro import HiGNN
    from repro.prediction.experiment import run_graph_method

    hierarchy = HiGNN(hcfg, seed=seed).fit(dataset.graph)
    result = run_graph_method("hignn", dataset, hierarchy, cvr_config=cvr, seed=seed)
    return hierarchy, result.auc


def run_pipeline(size: str, seed: int, seconds: float, trace, tmp: Path) -> Outcome:
    from repro import load_dataset

    spec = SIZES[size]["pipeline"]
    hcfg, cvr = _pipeline_configs(spec)

    def build(_rep):
        return load_dataset("mini-taobao1", spec["dataset"], seed=seed)

    dataset, setup_s = _median_setup(build, 1 if trace else SETUP_REPEATS)
    runs = []  # (seconds, auc, levels, peak_mb)
    failures = []

    def measure():
        with PeakMemory() as mem:
            t0 = time.perf_counter()
            hierarchy, auc = _one_pipeline(dataset, hcfg, cvr, seed)
            dt = time.perf_counter() - t0
        runs.append((dt, auc, len(hierarchy.levels), mem.peak_mb))
        failures.extend(checks.check_hierarchy(hierarchy) + checks.check_auc(auc, spec["auc_floor"]))

    if trace:
        measure()
        with trace.session() as session, LayerProbe(trace.obs) as probe:
            measure()
    else:
        while not runs or sum(r[0] for r in runs) < seconds:
            measure()

    ops = sum(levels + 1 for _, _, levels, _ in runs)  # each level, then the CVR head
    times = [r[0] for r in runs]
    detail = {
        "pipeline_s": statistics.median(times),
        "auc": runs[-1][1],
        "levels": runs[-1][2],
        "num_edges": dataset.graph.num_edges,
        "pipelines": len(runs),
    }
    if trace:
        metrics = probe.metrics(
            session.registry,
            {
                "prediction.auc": runs[-1][1],
                "trace.overhead_share": (times[1] - times[0]) / times[0],
            },
        )
    else:
        metrics = _e2e(setup_s, max(r[3] for r in runs), statistics.median(times) * 1e3)
    return Outcome(metrics, detail, ops, failures, min(len(failures), ops))


# ---------------------------------------------------------------------------
# serving: a streamed cluster world behind a ServingFrontend
# ---------------------------------------------------------------------------
def _world_graph(size: str, seed: int, path: Path):
    from repro import BipartiteGraph
    from repro.data.synthetic import StreamedWorldConfig, stream_world_to_shards

    w = SIZES[size]["world"]
    cfg = StreamedWorldConfig(
        num_users=w["users"],
        num_items=w["items"],
        num_clusters=w["clusters"],
        mean_degree=w["degree"],
        feature_dim=FEATURE_DIM,
    )
    with stream_world_to_shards(path, cfg, num_shards=NUM_SHARDS, seed=seed) as store:
        return BipartiteGraph.from_sharded(store.path)


def _model(dim: int, seed: int):
    from repro import BipartiteGraphSAGE, SageConfig

    return BipartiteGraphSAGE(FEATURE_DIM, FEATURE_DIM, SageConfig(embedding_dim=dim), rng=seed)


class _Server:
    """A warmed frontend that checks every segment it serves.

    Each segment's slates are checked as soon as the segment ends (so
    between timed segments) and then released, which keeps the memory
    the benchmark holds independent of how many requests a run served.
    """

    def __init__(self, size: str, seed: int, tmp: Path, rep: int, holdout: int) -> None:
        from repro.streaming import ServingFrontend, StreamingEmbedder
        from repro.utils.rng import derive_rng

        self.spec = SIZES[size]["serve"]
        self.seed = seed
        graph = _world_graph(size, seed, tmp / f"world-{rep}")
        held = derive_rng(seed, 5).choice(graph.num_edges, size=holdout, replace=False)
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[held] = True
        self.held_edges = graph.edges[held]
        self.held_weights = graph.edge_weights[held]
        graph = graph.subgraph_by_edges(~mask)
        self.model = _model(self.spec["dim"], seed)
        self.frontend = ServingFrontend(graph, StreamingEmbedder(self.model, sample_seed=seed))
        self.frontend.warm(workers=1)
        self.rng = derive_rng(seed, 7)
        self.pick = derive_rng(seed, 9)
        warm = self.visitors(self.spec["warm_requests"])
        for start in range(0, len(warm), self.frontend.microbatch):
            self.frontend.serve(warm[start : start + self.frontend.microbatch], self.spec["k"])
        self.failures: list[str] = []  # failed checks
        self.errors: list[str] = []  # raised requests, already counted in ``raised``
        self.requests = 0
        self.raised = 0

    @property
    def num_users(self) -> int:
        return self.frontend.graph.num_users

    def visitors(self, n: int) -> np.ndarray:
        """Zipf-popular visitor ids: a few heavy repeat users, a long tail."""
        return (self.rng.zipf(self.spec["zipf"], size=n) - 1) % self.num_users

    def cache_counts(self) -> dict[str, int]:
        c = self.frontend.cache
        return {"hits": c.hits, "misses": c.misses, "evictions": c.evictions}

    def segment(self, rate: float, duration_s: float, on_tick=None, t0=None, check=True):
        """Serve one open-loop segment; check it unless ``check`` is off."""
        due = poisson_schedule(self.rng, rate, duration_s)
        users = self.visitors(len(due))
        n_oracle = min(self.spec["oracle_samples"], len(due))
        sample = np.sort(self.pick.choice(len(due), size=n_oracle, replace=False))
        oracle = []  # (request, user, slate, user row, item matrix) as served
        offset = 0

        def serve(batch):
            nonlocal offset
            start, offset = offset, offset + len(batch)
            slates = self.frontend.serve(batch, self.spec["k"])
            lo, hi = np.searchsorted(sample, [start, offset])
            if hi > lo:  # keep what the oracle needs: these rows may be refreshed away
                z_user, z_item = self.frontend.embedder.embeddings
                for pos in sample[lo:hi]:
                    user = batch[pos - start]
                    oracle.append((int(pos), int(user), slates[pos - start], z_user[user].copy(), z_item))
            return slates

        stats = run_open_loop(
            serve,
            users,
            due,
            batch_cap=self.frontend.microbatch,
            on_tick=on_tick,
            t0=t0,
        )
        stats.oracle = oracle
        self.errors += stats.errors
        if check:
            self.failures += self.check_segment(stats)
            stats.slates, stats.oracle = [], []
        self.requests += stats.requests
        self.raised += stats.failed
        return stats

    def check_segment(self, stats) -> list[str]:
        """Shape checks on every slate; oracle checks on the seeded sample."""
        k = self.spec["k"]
        return checks.check_slate_shapes(stats.slates, k) + checks.check_slates_against_oracle(
            [o for o in stats.oracle if o[2] is not None], k
        )


class _Ingest:
    """Replays held-out edges at a fixed rate and refreshes every
    ``refresh_every`` edges, inside the serve loop's ticks."""

    def __init__(self, server: _Server, spec: dict, start_edge: int, seconds: float) -> None:
        self.server = server
        self.every = spec["refresh_every"]
        count = min(len(server.held_edges) - start_edge, int(seconds * spec["rate"]))
        self.lo, self.hi = start_edge, start_edge + count
        self.due = np.arange(count) / spec["rate"]
        self.next = 0
        self.pending = 0
        self.freshness: list[float] = []
        self.refresh_s: list[float] = []
        self.ingest_s = 0.0
        self.modes: list[str] = []
        self.recompute: list[float] = []

    def tick(self, now: float) -> None:
        end = int(np.searchsorted(self.due, now, side="right"))
        if end > self.next:
            a, b = self.lo + self.next, self.lo + end
            t = time.perf_counter()
            self.server.frontend.ingest(self.server.held_edges[a:b], self.server.held_weights[a:b])
            self.ingest_s += time.perf_counter() - t
            self.pending += end - self.next
            self.next = end
        if self.pending >= self.every:
            self.refresh(now)

    def refresh(self, now: float) -> None:
        t = time.perf_counter()
        stats = self.server.frontend.refresh(workers=1)
        dt = time.perf_counter() - t
        visible = now + dt
        first = self.next - self.pending
        self.freshness.extend(visible - self.due[first : self.next])
        self.pending = 0
        self.refresh_s.append(dt)
        self.modes.append(stats.mode)
        self.recompute.append(stats.recompute_fraction)

    def finish(self, t0: float) -> None:
        """Replay the edges still due in the window, then make them visible."""
        while self.next < len(self.due):
            wait = self.due[self.next] - (time.perf_counter() - t0)
            if wait > 0:
                time.sleep(wait)
            self.tick(time.perf_counter() - t0)
        if self.pending:
            self.refresh(time.perf_counter() - t0)


def _per_cycle(stats, cycles: int, stat) -> float:
    """Median over refresh cycles of ``stat`` of each cycle's reads.

    Reads are split into ``cycles`` equal spans of the window, one per
    refresh, so each span holds one refresh stall and the reads it
    delayed; the median is the typical stall, not the worst one.
    """
    return statistics.median(stat(part) for part in np.array_split(stats.latency_ms, cycles))


def run_serve_ingest(size: str, seed: int, seconds: float, trace, tmp: Path) -> Outcome:
    ingest_spec = SIZES[size]["ingest"]

    def build(rep):
        return _Server(size, seed, tmp, rep, holdout=ingest_spec["holdout"])

    server, setup_s = _median_setup(build, 1 if trace else SETUP_REPEATS)
    read_rate = ingest_spec["rate"] * ingest_spec["reads_per_edge"]
    cycles = max(1, int(seconds * ingest_spec["rate"]) // ingest_spec["refresh_every"])

    def window(start_edge: int):
        replay = _Ingest(server, ingest_spec, start_edge, seconds)
        t0 = time.perf_counter()
        st = server.segment(read_rate, seconds, on_tick=replay.tick, t0=t0)
        replay.finish(t0)
        return st, replay

    with PeakMemory() as mem:
        if trace:
            untraced, first = window(0)
            with trace.session() as session, LayerProbe(trace.obs) as probe:
                before = server.cache_counts()
                st, replay = window(first.hi)
                after = server.cache_counts()
            replays = [first, replay]
        else:
            st, replay = window(0)
            replays = [replay]

    failures = list(server.failures)
    failures += checks.check_refresh_exact(
        server.frontend.embedder.embeddings, server.frontend.graph.graph, server.model, seed
    )
    edges = sum(r.hi - r.lo for r in replays)
    fresh = sum(len(r.freshness) for r in replays)
    if fresh != edges:
        failures.append(f"{edges - fresh} ingested edges never became visible")
    refreshes = sum(len(r.refresh_s) for r in replays)
    attempted = server.requests + edges + refreshes
    detail = {
        "p50_ms": percentile(st.latency_ms, 50),
        "p90_ms": _per_cycle(st, cycles, _p90),
        "p99_ms": _per_cycle(st, cycles, tail_percentile),
        "p99_all_ms": percentile(st.latency_ms, 99),
        "freshness_p50_s": percentile(replay.freshness, 50),
        "freshness_p99_s": percentile(replay.freshness, 99),
        "read_rate": read_rate,
        "edges": replay.hi - replay.lo,
        "refreshes": replay.modes,
        "refresh_s": [round(x, 4) for x in replay.refresh_s],
        "recompute_fraction": replay.recompute,
        "errors": server.errors[:5],
    }
    if trace:
        extra = serving_layers([st], {key: after[key] - before[key] for key in after}, session.registry)
        base = _per_cycle(untraced, cycles, tail_percentile)
        extra.update(
            {
                "streaming.ingest_s": replay.ingest_s,
                "streaming.refresh_s.p50": percentile(replay.refresh_s, 50),
                "streaming.refresh_s.max": max(replay.refresh_s),
                "streaming.refresh.delta_share": replay.modes.count("delta") / len(replay.modes),
                "streaming.refresh.recompute_fraction": float(np.mean(replay.recompute)),
                "streaming.freshness_p50_s": detail["freshness_p50_s"],
                "streaming.freshness_p99_s": detail["freshness_p99_s"],
                "trace.overhead_share": (detail["p99_ms"] - base) / base,
            }
        )
        metrics = probe.metrics(session.registry, extra)
    else:
        metrics = _e2e(setup_s, mem.peak_mb, detail["p99_ms"])
    failed = min(attempted, server.raised + len(failures))
    return Outcome(metrics, detail, attempted, failures, failed)


# ---------------------------------------------------------------------------
# embed-bulk: out-of-core embed_all over a sharded store
# ---------------------------------------------------------------------------
def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _noop(task, _context):
    return task


def run_embed_bulk(size: str, seed: int, seconds: float, trace, tmp: Path) -> Outcome:
    from repro import BipartiteGraph
    from repro.data.synthetic import StreamedWorldConfig, stream_world_to_shards
    from repro.parallel import get_pool

    spec = SIZES[size]["bulk"]
    workers = min(2, usable_cores())
    cfg = StreamedWorldConfig(
        num_users=spec["users"],
        num_items=spec["items"],
        num_clusters=spec["clusters"],
        mean_degree=spec["degree"],
        feature_dim=FEATURE_DIM,
    )
    stores = []

    def build(rep):
        for old in stores:
            old.destroy()
        stores.clear()
        stores.append(stream_world_to_shards(tmp / f"bulk-{rep}", cfg, num_shards=NUM_SHARDS, seed=seed))
        # Start the worker processes now, not inside the first timed pass.
        get_pool(workers).map(_noop, list(range(workers)))
        return stores[0]

    store, setup_s = _median_setup(build, 1 if trace else SETUP_REPEATS)
    passes = []  # (seconds, peak_mb, digest)
    last = None

    def one_pass():
        # The model's neighbour sampler is one sequential stream, so each
        # pass gets a fresh copy of the same seeded model; every pass
        # then has to produce the same bytes.
        nonlocal last
        model = _model(spec["dim"], seed)
        with PeakMemory() as mem:
            t0 = time.perf_counter()
            last = model.embed_all(store, workers=workers)
            dt = time.perf_counter() - t0
        passes.append((dt, mem.peak_mb, _digest(last)))

    try:
        # An untimed pass first: page cache, worker memory, lazy imports.
        one_pass()
        warm = passes.pop()
        if trace:
            one_pass()
            with trace.session() as session, LayerProbe(trace.obs) as probe:
                one_pass()
        else:
            while not passes or sum(p[0] for p in passes) < seconds:
                one_pass()
        failures = []
        if len({p[2] for p in passes + [warm]}) != 1:
            failures.append("sharded passes disagree with each other")
        got = [np.array(a) for a in last]
        graph = BipartiteGraph.from_sharded(store.path)
        dense = _model(spec["dim"], seed).embed_all(graph, mode="layerwise")
        failures += checks.check_bitwise("sharded embed_all vs dense", got, dense)
    finally:
        num_edges = store.num_edges
        store.destroy()
    times = [p[0] for p in passes]
    vertices = spec["users"] + spec["items"]
    detail = {
        "embed_vertices_per_s": vertices / statistics.median(times),
        "passes": len(passes),
        "pass_s": [round(t, 4) for t in times],
        "num_edges": num_edges,
        "workers": workers,
    }
    if trace:
        extra = {"trace.overhead_share": (times[1] - times[0]) / times[0]}
        metrics = probe.metrics(session.registry, extra)
    else:
        metrics = _e2e(setup_s, max(p[1] for p in passes), statistics.median(times) * 1e3)
    ops = len(passes) + 1  # the warm pass is checked too
    return Outcome(metrics, detail, ops, failures, min(ops, len(failures)), workers)


WORKLOADS = {
    "pipeline": run_pipeline,
    "serve-ingest": run_serve_ingest,
    "embed-bulk": run_embed_bulk,
}
