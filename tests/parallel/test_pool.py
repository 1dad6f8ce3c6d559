"""WorkerPool semantics: serial fallback, ordering, shared context,
task failures and observability on worker threads."""

import os
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.metrics import counter_add
from repro.obs.trace import span
from repro.parallel import WorkerPool, get_pool


def _double(task, context):
    return task * 2


def _thread_task(task, context):
    return os.getpid(), threading.get_ident()


def _context_id(task, context):
    return id(context), float(context.sum()) + task


def _boom_from_one(task, context):
    if task >= 1:
        raise ValueError(f"task {task} failed")
    return task


def _fail_first_or_finish_late(task, context):
    if task == 0:
        raise ValueError("task 0 failed")
    time.sleep(0.2)
    context.append(task)
    return task


def _counted(task, context):
    counter_add("test.pool.tasks", 1)
    with span("test.pool.inner"):
        return task


def _count_many(task, context):
    for _ in range(2000):
        counter_add("test.pool.increments", 1)
    return task


class TestSerialFallback:
    def test_workers_one_never_spawns(self):
        pool = WorkerPool(1)
        assert not pool.parallel
        assert pool.map(_double, range(10)) == [t * 2 for t in range(10)]
        assert pool._pool is None  # no thread pool was ever created

    def test_empty_tasks(self):
        assert WorkerPool(1).map(_double, []) == []
        pool = WorkerPool(2)
        try:
            assert pool.map(_double, []) == []
            assert pool._pool is None  # empty map short-circuits
        finally:
            pool.shutdown()

    def test_get_pool_defaults_to_in_process(self):
        # The worker count is an argument; nothing process-global sets it.
        assert get_pool().workers == 1 and not get_pool().parallel
        assert get_pool(2).workers == 2


@pytest.mark.parallel
class TestParallelMap:
    def test_preserves_task_order(self):
        with WorkerPool(2) as pool:
            assert pool.map(_double, range(50)) == [t * 2 for t in range(50)]

    def test_runs_on_worker_threads(self):
        with WorkerPool(2) as pool:
            seen = set(pool.map(_thread_task, range(8)))
        assert {pid for pid, _ in seen} == {os.getpid()}
        assert threading.get_ident() not in {ident for _, ident in seen}

    def test_large_context_broadcast(self):
        # Every task sees the caller's one context object, not a copy.
        context = np.ones(200_000)
        with WorkerPool(2) as pool:
            results = pool.map(_context_id, [1, 2, 3], context=context)
        assert results == [(id(context), 200_000.0 + t) for t in (1, 2, 3)]

    def test_worker_exception_propagates(self):
        with WorkerPool(2) as pool:
            # The first failure in task order fails the map.
            with pytest.raises(ValueError, match="task 1 failed"):
                pool.map(_boom_from_one, range(4))
            # The pool survives task failures.
            assert pool.map(_double, [5]) == [10]

    def test_failed_map_leaves_no_task_running(self):
        # A task still running after its map raised could write rows or
        # flip grad mode behind the caller's back.
        finished = []
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task 0 failed"):
                pool.map(_fail_first_or_finish_late, [0, 1, 2], context=finished)
            assert sorted(finished) == [1, 2]

    def test_shutdown_idempotent(self):
        pool = WorkerPool(2)
        pool.map(_double, [1])
        pool.shutdown()
        pool.shutdown()
        # And usable again after shutdown (lazily recreated).
        assert pool.map(_double, [3]) == [6]
        pool.shutdown()


@pytest.mark.parallel
class TestObsPropagation:
    def test_counters_merge_into_parent(self):
        # Tasks on both threads record into the caller's one registry;
        # its lock keeps every increment.
        with WorkerPool(2) as pool:
            with obs.observe() as session:
                pool.map(_count_many, range(8), label="counted")
            assert session.counter("test.pool.increments") == 8 * 2000

    def test_one_map_span_nests_under_the_open_span(self):
        with WorkerPool(2) as pool:
            with obs.observe() as session:
                with obs.span("outer"):
                    pool.map(_count_many, range(4), label="counted")
        spans = [(s.name, depth) for s, depth in session.tracer.all_spans()]
        assert spans == [("outer", 0), ("parallel.map", 1)]
        (root,) = session.tracer.roots
        assert root.children[0].attrs == {"label": "counted", "tasks": 4, "workers": 2}

    def test_serial_map_spans(self):
        # Inline, the map's one span still covers its tasks, and a task's
        # own spans nest under it.
        with obs.observe() as session:
            WorkerPool(1).map(_counted, range(3), label="counted")
        names = [s.name for s, _ in session.tracer.all_spans()]
        assert names == ["parallel.map"] + ["test.pool.inner"] * 3
        assert session.tracer.roots[0].attrs["label"] == "counted"
        assert session.counter("test.pool.tasks") == 3
