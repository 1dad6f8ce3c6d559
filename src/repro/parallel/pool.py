"""Fork-safe worker pools with deterministic fan-out.

One caller fans out: the layer-wise pass of ``embed_all`` over a
``ShardedCSR`` store, whose tasks read and write memory-mapped files and
so ship only paths and chunk bounds.  Every in-RAM path runs in process.

The execution model keeps parallel results bitwise-equal to serial ones
by construction:

* The caller materialises every task (chunk bounds, pre-sampled ids,
  derived RNGs) **in the parent, in a fixed order**, before any fan-out.
* :meth:`WorkerPool.map` runs the same top-level task function on the
  same task tuples whether it executes in-process (``workers<=1``) or on
  the pool, and always returns results in submission order, so reduction
  order never depends on scheduling.

A pool with ``workers<=1`` never spawns anything.  Real pools are a
``concurrent.futures.ProcessPoolExecutor`` (fork context), created
lazily on first parallel map, re-created if the handle crosses a
``fork()`` (the inherited executor is unusable in the child), and
degraded to the in-process path with a warning when the platform cannot
provide worker processes at all.  A worker that dies mid-map fails the
map at once with a :class:`RuntimeError`; the broken executor is
dropped and the next map starts a fresh one.

Observability composes: when a tracer/metrics registry is active in the
parent, each worker task runs under a fresh registry+tracer whose
counters, histograms and span trees are carried back with the result and
merged into the parent session when the map joins — ``--trace`` output
stays complete under ``--workers N``.

The per-map ``context`` object (weights, paths) is pickled once and
broadcast — through a shared-memory blob when it is big — instead of
being serialised per task.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import logging
import multiprocessing as mp
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Iterable

from repro.obs.metrics import current_registry, metrics_enabled
from repro.obs.monitor import current_monitor
from repro.obs.trace import current_tracer, span, tracing_enabled

__all__ = [
    "ParallelConfig",
    "WorkerPool",
    "configure",
    "get_pool",
    "shutdown_pools",
]

logger = logging.getLogger("repro.parallel")

# Context payloads up to this size ride along inside each task message;
# larger ones are broadcast once through a shared-memory blob.
_INLINE_CONTEXT_BYTES = 65536


def attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    Only the parent that created a context blob may clean it up; before
    Python 3.13's ``track=False`` the sole way to keep an attaching
    worker (and the tracker all forked workers share) out of the blob's
    lifecycle is to suppress the registration call itself.
    Unregistering *after* attach is not enough: the tracker's name cache
    is a set, so several workers attaching the same blob would dedupe
    their registrations but still send one remove each, crashing the
    tracker with KeyErrors.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass
class ParallelConfig:
    """Process-global settings of the parallel execution layer.

    ``map_timeout_s`` bounds every parallel map so a deadlocked pool
    raises instead of hanging the caller.  The worker count is not a
    setting: every call site takes ``workers`` as an argument.
    """

    map_timeout_s: float | None = None


_CONFIG = ParallelConfig()
_POOLS: dict[int, "WorkerPool"] = {}


def configure(map_timeout_s: float | None = None) -> ParallelConfig:
    """Set the process-global settings; returns the live config."""
    if map_timeout_s is not None:
        _CONFIG.map_timeout_s = float(map_timeout_s)
    return _CONFIG


def get_pool(workers: int = 1) -> "WorkerPool":
    """The shared pool for ``workers`` (``<= 1``: in-process).

    Pools are cached per worker count and shut down at interpreter exit,
    so repeated hot-path calls reuse live worker processes.
    """
    count = max(1, int(workers))
    pool = _POOLS.get(count)
    if pool is None:
        pool = _POOLS[count] = WorkerPool(count)
    return pool


def shutdown_pools() -> None:
    """Shut down every cached pool (registered with ``atexit``)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
# One-slot context cache per worker process: maps travel with a context
# key; the blob is deserialised once per worker per map, not per task.
_CTX_CACHE: dict[str, Any] = {"key": None, "value": None}


def _worker_init() -> None:
    """Reset inherited process-global state in a fresh worker.

    Under ``fork`` the child inherits the parent's installed tracer and
    registry; writing to those copies would be silently lost, so workers
    start clean and report through the explicit merge path instead.
    The same goes for the resource monitor: the inherited object's
    sampler thread did not survive the fork, so the global is cleared
    and workers run their own short-lived monitor per task.
    """
    from repro.obs import metrics as _metrics
    from repro.obs import monitor as _monitor
    from repro.obs import trace as _trace

    _trace._TRACER = None
    _metrics._REGISTRY = None
    _monitor._MONITOR = None
    _monitor._ACTIVE.clear()
    _CTX_CACHE["key"] = None
    _CTX_CACHE["value"] = None


def _resolve_context(ctx_ref: tuple | None) -> Any:
    if ctx_ref is None:
        return None
    kind, key, payload = ctx_ref
    if _CTX_CACHE["key"] == key:
        return _CTX_CACHE["value"]
    if kind == "bytes":
        value = pickle.loads(payload)
    else:  # "shm"
        name, size = payload
        shm = attach_untracked(name)
        try:
            value = pickle.loads(bytes(shm.buf[:size]))
        finally:
            shm.close()
    _CTX_CACHE["key"] = key
    _CTX_CACHE["value"] = value
    return value


def _run_task(payload: tuple) -> tuple[Any, dict[str, Any] | None]:
    """Execute one task in a worker; capture obs state when requested.

    When the parent had a :class:`~repro.obs.monitor.ResourceMonitor`
    active, ``monitor_interval`` is its sampling interval and the task
    runs under a worker-local monitor whose series (tagged
    ``worker-<pid>``) ships back inside the obs payload.
    """
    fn, task, ctx_ref, obs_on, monitor_interval, label = payload
    context = _resolve_context(ctx_ref)
    if not obs_on and monitor_interval is None:
        return fn(task, context), None
    from repro.obs.metrics import MetricsRegistry, install_registry, uninstall_registry
    from repro.obs.monitor import ResourceMonitor
    from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

    tracer = install_tracer(Tracer())
    registry = install_registry(MetricsRegistry())
    monitor_series = None
    try:
        with tracer.start(label or getattr(fn, "__name__", "task"), {"pid": os.getpid()}):
            if monitor_interval is not None:
                with ResourceMonitor(
                    interval_s=monitor_interval, tag=f"worker-{os.getpid()}"
                ) as monitor:
                    result = fn(task, context)
                monitor_series = monitor.series()
            else:
                result = fn(task, context)
    finally:
        uninstall_tracer()
        uninstall_registry()
    obs_payload = {
        "metrics": registry.snapshot(),
        "spans": [root.to_dict() for root in tracer.roots],
    }
    if monitor_series is not None:
        obs_payload["monitor"] = monitor_series
    return result, obs_payload


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class WorkerPool:
    """A lazily started process pool with an in-process serial mode.

    ``workers<=1`` (the default everywhere) executes maps inline in the
    caller — no processes, no pickling.  ``workers>1`` forks a
    ``ProcessPoolExecutor`` on first use and keeps it warm.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._owner_pid: int | None = None
        self._broken = False
        self._ctx_counter = 0

    @property
    def parallel(self) -> bool:
        """True when maps will fan out to worker processes."""
        return self.workers > 1 and not self._broken

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor | None:
        if self._pool is not None and self._owner_pid == os.getpid():
            return self._pool
        # A handle that crossed a fork() must not touch the parent's
        # executor machinery; start a fresh one here.
        self._pool = None
        try:
            # fork where available: workers start cheaply and inherit imports.
            ctx = mp.get_context("fork" if hasattr(os, "fork") else None)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                self.workers, mp_context=ctx, initializer=_worker_init
            )
        except (OSError, ValueError) as exc:  # e.g. no /dev/shm semaphores
            self._broken = True
            logger.warning("worker pool unavailable (%s); running in-process", exc)
            return None
        self._owner_pid = os.getpid()
        return self._pool

    def shutdown(self) -> None:
        """Kill the workers and release the executor (idempotent).

        Workers are terminated, not drained, so a hung or half-finished
        map cannot keep a process alive past its pool.
        """
        executor, self._pool = self._pool, None
        if executor is None or self._owner_pid != os.getpid():
            return
        for process in list((getattr(executor, "_processes", None) or {}).values()):
            process.terminate()
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter teardown races
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- mapping -------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Iterable[Any],
        context: Any = None,
        timeout: float | None = None,
        label: str | None = None,
    ) -> list[Any]:
        """Run ``fn(task, context)`` over ``tasks``; results in task order.

        ``fn`` must be a module-level callable (workers import it by
        reference).  ``context`` is broadcast once per map; ``timeout``
        (seconds, default :attr:`ParallelConfig.map_timeout_s`) bounds
        the whole map and raises :class:`TimeoutError` on a hung pool.
        A worker that dies raises :class:`RuntimeError` naming the map.
        Either way the executor is killed, so the next map starts fresh.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        name = label or getattr(fn, "__name__", "task")
        if not self.parallel:
            return self._map_inline(fn, tasks, context, name)
        executor = self._ensure_pool()
        if executor is None:
            return self._map_inline(fn, tasks, context, name)
        if timeout is None:
            timeout = _CONFIG.map_timeout_s
        obs_on = tracing_enabled() or metrics_enabled()
        parent_monitor = current_monitor()
        monitor_interval = (
            parent_monitor.interval_s if parent_monitor is not None else None
        )
        ctx_ref, ctx_cleanup = self._prepare_context(context)
        payloads = [
            (fn, task, ctx_ref, obs_on, monitor_interval, name) for task in tasks
        ]
        # Pool.map's batching: about four chunks per worker, so the
        # per-task messages do not grow with the task count.
        chunksize, extra = divmod(len(payloads), self.workers * 4)
        where = f"parallel map {name!r} ({len(tasks)} tasks, {self.workers} workers)"
        with span("parallel.map", label=name, tasks=len(tasks), workers=self.workers):
            try:
                raw = list(
                    executor.map(
                        _run_task, payloads, timeout=timeout, chunksize=chunksize + bool(extra)
                    )
                )
            except concurrent.futures.TimeoutError:
                self.shutdown()
                raise TimeoutError(f"{where} timed out after {timeout}s") from None
            except BrokenProcessPool as exc:
                self.shutdown()
                raise RuntimeError(f"{where}: a worker process died") from exc
            finally:
                ctx_cleanup()
            results = []
            for result, obs_payload in raw:
                if obs_payload is not None:
                    self._merge_obs(obs_payload)
                results.append(result)
        return results

    def _map_inline(self, fn, tasks: list, context: Any, name: str) -> list[Any]:
        results = []
        for task in tasks:
            with span(name):
                results.append(fn(task, context))
        return results

    def _prepare_context(self, context: Any) -> tuple[tuple | None, Callable[[], None]]:
        if context is None:
            return None, lambda: None
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        self._ctx_counter += 1
        key = f"{os.getpid()}-{id(self)}-{self._ctx_counter}"
        if len(blob) <= _INLINE_CONTEXT_BYTES:
            return ("bytes", key, blob), lambda: None
        shm = shared_memory.SharedMemory(create=True, size=len(blob))
        shm.buf[: len(blob)] = blob

        def cleanup() -> None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

        return ("shm", key, (shm.name, len(blob))), cleanup

    @staticmethod
    def _merge_obs(obs_payload: dict[str, Any]) -> None:
        registry = current_registry()
        if registry is not None:
            registry.merge(obs_payload["metrics"])
        tracer = current_tracer()
        if tracer is not None:
            tracer.adopt(obs_payload["spans"])
        series = obs_payload.get("monitor")
        if series is not None:
            monitor = current_monitor()
            if monitor is not None:
                monitor.adopt_series(series)
