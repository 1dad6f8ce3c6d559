"""Per-layer figures for the traced run.

:class:`LayerProbe` wraps the calls the workloads make into each module
(and, inside ``HiGNN.fit`` / ``run_graph_method``, the module functions
those public entry points call) with timers and ``bench.*`` spans, for
the duration of a ``with`` block only.  The untraced runs never see it.
Counts the program already publishes through :mod:`repro.obs` are read
from the traced session's registry.

Every per-layer metric is reported by every workload; a layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from harness import percentile

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "core.trainer.fit_s": ("s", "lower"),
    "core.trainer.fit_s.l1": ("s", "lower"),
    "core.trainer.fit_s.l2": ("s", "lower"),
    "core.trainer.fit_s.l3": ("s", "lower"),
    "core.trainer.edges_per_s": ("1/s", "higher"),
    "core.sage.embed_all_s": ("s", "lower"),
    "clustering.kmeans_s": ("s", "lower"),
    "clustering.kmeans_iters": ("count", "lower"),
    "graph.coarsen_s": ("s", "lower"),
    "graph.coarsen.weight_residual": ("weight", "lower"),
    "prediction.assemble_s": ("s", "lower"),
    "prediction.cvr_train_s": ("s", "lower"),
    "prediction.cvr_samples_per_s": ("1/s", "higher"),
    "prediction.predict_s": ("s", "lower"),
    "prediction.auc": ("ratio", "higher"),
    "streaming.frontend.serve_s": ("s", "lower"),
    "streaming.frontend.hit_rate": ("ratio", "higher"),
    "streaming.frontend.miss_batch": ("count", "higher"),
    "serving.topk_s": ("s", "lower"),
    "streaming.lru.evictions": ("count", "lower"),
    "load.wait_ms_p99": ("ms", "lower"),
    "load.backlog_max": ("count", "lower"),
    "load.gen_late_ms_p99": ("ms", "lower"),
    "streaming.ingest_s": ("s", "lower"),
    "streaming.refresh_s.p50": ("s", "lower"),
    "streaming.refresh_s.max": ("s", "lower"),
    "streaming.refresh.delta_share": ("ratio", "higher"),
    "streaming.refresh.recompute_fraction": ("ratio", "lower"),
    "streaming.frontend.invalidations": ("count", "lower"),
    "streaming.compactions": ("count", "lower"),
    "streaming.freshness_p50_s": ("s", "lower"),
    "streaming.freshness_p99_s": ("s", "lower"),
    "shard.embed_s": ("s", "lower"),
    "parallel.map_s": ("s", "lower"),
    "shard.parent_s": ("s", "lower"),
    "parallel.tasks": ("count", "higher"),
    "parallel.degraded": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


class Tracing:
    """Hands workloads an obs session; keeps it to write out at the end."""

    def __init__(self) -> None:
        import repro.obs as obs

        self.obs = obs
        self.last = None

    @contextlib.contextmanager
    def session(self):
        with self.obs.observe() as session:
            self.last = session
            yield session

    def write(self, path) -> None:
        """Write the last session's spans as one Chrome trace file."""
        if self.last is not None:
            self.last.write_chrome_trace(path)


class LayerProbe:
    """Patch timers around module calls; restore them on exit."""

    def __init__(self, obs) -> None:
        self._obs = obs
        self._patched: list[tuple[object, str, object]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.fit_s: list[float] = []  # one entry per SageTrainer.fit, in level order
        self.kmeans_iters = 0
        self.weight_residual = 0.0
        self.cvr_samples = 0
        self.map_tasks = 0
        self.map_degraded = 0

    # -- patching --------------------------------------------------------
    def _wrap(self, owner, attr: str, layer, after=None) -> None:
        """Time ``owner.attr`` as ``layer`` (a name, or a function of the
        call's positional arguments that returns one)."""
        original = getattr(owner, attr)  # AttributeError: the layer moved
        obs, seconds = self._obs, self.seconds
        name_of = layer if callable(layer) else (lambda _args: layer)

        def timed(*args, **kwargs):
            layer = name_of(args)
            with obs.span(f"bench.{layer}"):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                dt = time.perf_counter() - t0
            seconds[layer] += dt
            if after is not None:
                after(dt, out, args, kwargs)
            return out

        self._patched.append((owner, attr, original))
        setattr(owner, attr, timed)

    def __enter__(self) -> "LayerProbe":
        import repro.core.hignn as hignn
        import repro.prediction.experiment as experiment
        import repro.serving.recommend as recommend
        from repro.core.sage import BipartiteGraphSAGE
        from repro.core.trainer import SageTrainer
        from repro.graph.bipartite import BipartiteGraph
        from repro.parallel.pool import WorkerPool
        from repro.prediction.cvr_model import CVRModel, CVRTrainConfig
        from repro.prediction.features import FeatureAssembler

        def on_fit(dt, *_):
            self.fit_s.append(dt)

        def on_kmeans(dt, result, *_):
            self.kmeans_iters += int(result.n_iter)

        def on_coarsen(dt, result, args, kwargs):
            fine = args[0] if args else kwargs["graph"]
            self.weight_residual = max(
                self.weight_residual,
                abs(result.graph.total_weight - fine.total_weight),
            )

        def on_cvr(dt, out, args, kwargs):
            cfg = kwargs.get("config") or CVRTrainConfig()
            self.cvr_samples += len(args[0]) * cfg.epochs

        def on_map(dt, out, args, kwargs):
            pool, tasks = args[0], args[2] if len(args) > 2 else kwargs["tasks"]
            self.map_tasks += len(tasks)
            if pool.workers > 1 and not pool.parallel:
                self.map_degraded += 1

        self._wrap(SageTrainer, "fit", "trainer.fit", on_fit)
        self._wrap(hignn, "kmeans", "kmeans", on_kmeans)
        self._wrap(hignn, "coarsen", "coarsen", on_coarsen)
        self._wrap(FeatureAssembler, "assemble_samples", "assemble")
        self._wrap(experiment, "train_cvr_model", "cvr_train", on_cvr)
        self._wrap(CVRModel, "predict_proba", "predict")
        self._wrap(recommend, "stable_topk", "topk")
        self._wrap(WorkerPool, "map", "parallel.map", on_map)
        # embed_all serves both dense graphs (Algorithm 1) and shard
        # stores (the out-of-core path); split the two by argument type.
        self._wrap(
            BipartiteGraphSAGE,
            "embed_all",
            lambda args: "sage.embed_all" if isinstance(args[1], BipartiteGraph) else "shard.embed",
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- report ------------------------------------------------------------
    def metrics(self, registry, extra: dict[str, float]) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric; ``extra`` supplies the ones the
        workload measured itself (serving loop, refresh, freshness)."""
        s = self.seconds
        fit_total = sum(self.fit_s)
        edges = registry.counter("train.edges_seen")
        out = {name: 0.0 for name in PER_LAYER}
        out.update(
            {
                "core.trainer.fit_s": fit_total,
                "core.trainer.edges_per_s": edges / fit_total if fit_total else 0.0,
                "core.sage.embed_all_s": s["sage.embed_all"],
                "clustering.kmeans_s": s["kmeans"],
                "clustering.kmeans_iters": float(self.kmeans_iters),
                "graph.coarsen_s": s["coarsen"],
                "graph.coarsen.weight_residual": self.weight_residual,
                "prediction.assemble_s": s["assemble"],
                "prediction.cvr_train_s": s["cvr_train"],
                "prediction.cvr_samples_per_s": (
                    self.cvr_samples / s["cvr_train"] if s["cvr_train"] else 0.0
                ),
                "prediction.predict_s": s["predict"],
                "serving.topk_s": s["topk"],
                "streaming.compactions": registry.counter("streaming.compactions"),
                "streaming.frontend.invalidations": registry.counter(
                    "serving.cache_invalidations"
                ),
                "shard.embed_s": s["shard.embed"],
                "parallel.map_s": s["parallel.map"],
                "shard.parent_s": max(0.0, s["shard.embed"] - s["parallel.map"])
                if s["shard.embed"]
                else 0.0,
                "parallel.tasks": float(self.map_tasks),
                "parallel.degraded": float(self.map_degraded),
            }
        )
        for level, dt in enumerate(self.fit_s[:3], start=1):
            out[f"core.trainer.fit_s.l{level}"] = dt
        unknown = set(extra) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        out.update(extra)
        return out


def serving_layers(loop_stats, cache_delta: dict, registry) -> dict[str, float]:
    """Per-layer serving figures from open-loop segments, LRU counter
    deltas, and the frontend's own count of scored micro-batches."""
    wait = np.concatenate([st.wait_ms for st in loop_stats])
    late = [x for st in loop_stats for x in st.gen_late_ms]
    lookups = cache_delta["hits"] + cache_delta["misses"]
    hist = registry.histograms.get("serving.batch_ms")
    batches = hist.count if hist is not None else 0
    return {
        "streaming.frontend.serve_s": sum(st.busy_s for st in loop_stats),
        "streaming.frontend.hit_rate": cache_delta["hits"] / lookups if lookups else 0.0,
        "streaming.frontend.miss_batch": cache_delta["misses"] / batches if batches else 0.0,
        "streaming.lru.evictions": float(cache_delta["evictions"]),
        "load.wait_ms_p99": percentile(wait, 99),
        "load.backlog_max": float(max(st.backlog_max for st in loop_stats)),
        "load.gen_late_ms_p99": percentile(late, 99) if late else 0.0,
    }
