"""Deterministic thread fan-out for out-of-core embedding.

One caller fans out: the layer-wise pass of ``embed_all`` over a
``ShardedCSR`` store.  Its tasks spend their time in numpy and BLAS
calls that release the GIL, reading and writing memory-mapped files, so
threads of this one process run them in parallel.  Every in-RAM path
runs inline.

The execution model keeps parallel results bitwise-equal to serial ones
by construction:

* The caller materialises every task (chunk bounds, weights, seeds)
  **in a fixed order**, before any fan-out, and tasks write disjoint
  rows.
* :meth:`WorkerPool.map` runs the same task function on the same task
  tuples whether it executes inline (``workers<=1``) or on threads, and
  always returns results in submission order, so reduction order never
  depends on scheduling.

Tasks share the process, so shared state follows three rules:

* **Metrics** — :class:`~repro.obs.metrics.MetricsRegistry` updates
  take a lock, so counters a task records land in the caller's session.
* **Spans** — tasks open no spans (the tracer's stack is not
  thread-safe); the map's one ``parallel.map`` span covers them.
* **Grad mode** — a module global of :mod:`repro.nn.tensor`.  Parallel
  maps run only inside ``embed_all``'s ``no_grad()``, so a task's own
  ``no_grad`` saves and restores ``False`` on every thread.

A pool with ``workers<=1`` never starts a thread.  Real pools are a
``concurrent.futures.ThreadPoolExecutor``, started lazily on the first
parallel map and kept warm.  A task exception fails its map: the map
waits for its other tasks, so none outlives it, then raises the first
exception in task order.
"""

from __future__ import annotations

import atexit
import concurrent.futures
from typing import Any, Callable, Iterable

from repro.obs.trace import span

__all__ = ["WorkerPool", "get_pool", "shutdown_pools"]

_POOLS: dict[int, "WorkerPool"] = {}


def get_pool(workers: int = 1) -> "WorkerPool":
    """The shared pool for ``workers`` (``<= 1``: inline).

    Pools are cached per worker count and shut down at interpreter exit,
    so repeated hot-path calls reuse live threads.
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


class WorkerPool:
    """A lazily started thread pool with an inline serial mode.

    ``workers<=1`` (the default everywhere) executes maps inline in the
    caller.  ``workers>1`` starts a ``ThreadPoolExecutor`` on first use
    and keeps it warm.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    @property
    def parallel(self) -> bool:
        """True when maps fan out to worker threads."""
        return self.workers > 1

    def shutdown(self) -> None:
        """Join the threads and release the executor (idempotent); the
        next map starts a fresh one."""
        executor, self._pool = self._pool, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Iterable[Any],
        context: Any = None,
        label: str | None = None,
    ) -> list[Any]:
        """Run ``fn(task, context)`` over ``tasks``; results in task order.

        ``context`` is shared by every task, not copied.  Every task has
        finished when this returns or raises; the first task exception
        (in task order) is raised here.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        name = label or getattr(fn, "__name__", "task")
        with span("parallel.map", label=name, tasks=len(tasks), workers=self.workers):
            if not self.parallel:
                return [fn(task, context) for task in tasks]
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    self.workers, thread_name_prefix="repro-pool"
                )
            futures = [self._pool.submit(fn, task, context) for task in tasks]
            concurrent.futures.wait(futures)
            return [future.result() for future in futures]
