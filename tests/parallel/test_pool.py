"""WorkerPool semantics: serial fallback, ordering, obs merge, timeouts,
worker death."""

import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.metrics import counter_add
from repro.obs.trace import span
from repro.parallel import WorkerPool, get_pool
from repro.shard import active_shard_dirs


# Task functions must be module-level so worker processes can resolve
# them by reference.
def _double(task, context):
    return task * 2


def _pid_task(task, context):
    return os.getpid()


def _context_sum(task, context):
    return float(np.asarray(context).sum()) + task


def _sleepy(task, context):
    time.sleep(task)
    return task


def _boom(task, context):
    raise ValueError(f"task {task} failed")


def _die_on_zero(task, context):
    if task == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def _shm_entries():
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _counted(task, context):
    counter_add("test.pool.tasks", 1)
    with span("test.pool.inner"):
        return task


class TestSerialFallback:
    def test_workers_one_never_spawns(self):
        pool = WorkerPool(1)
        assert not pool.parallel
        assert pool.map(_double, range(10)) == [t * 2 for t in range(10)]
        assert pool._pool is None  # no process pool was ever created

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

    def test_runs_in_worker_processes(self):
        with WorkerPool(2) as pool:
            pids = set(pool.map(_pid_task, range(8)))
        assert os.getpid() not in pids

    def test_large_context_broadcast(self):
        # 1.6 MB context exceeds the inline threshold -> shared-memory
        # broadcast path, deserialised once per worker.
        context = np.ones(200_000)
        with WorkerPool(2) as pool:
            results = pool.map(_context_sum, [1, 2, 3], context=context)
        assert results == [200_001.0, 200_002.0, 200_003.0]

    def test_worker_exception_propagates(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="failed"):
                pool.map(_boom, range(3))
            # The pool survives task failures.
            assert pool.map(_double, [5]) == [10]

    def test_timeout_raises_and_pool_recovers(self):
        with WorkerPool(2) as pool:
            with pytest.raises(TimeoutError, match="timed out"):
                pool.map(_sleepy, [5.0, 5.0], timeout=0.3)
            # The wedged pool was terminated; the next map gets a new one.
            assert pool.map(_double, [2]) == [4]

    def test_killed_worker_fails_the_map_and_the_pool_recovers(self):
        before = _shm_entries()
        # Above the inline limit, so the context travels as a /dev/shm blob.
        context = np.ones(200_000)
        with WorkerPool(2) as pool:
            # A hang would end in TimeoutError after 60 s; death must
            # raise RuntimeError at once instead.
            with pytest.raises(RuntimeError, match="'doomed'.*died"):
                pool.map(_die_on_zero, range(4), context=context, timeout=60, label="doomed")
            assert pool.map(_double, [1, 2]) == [2, 4]
            pids = set(pool.map(_pid_task, range(8)))
        assert _shm_entries() - before == set()
        assert active_shard_dirs() == set()
        assert not any(_alive(pid) for pid in pids)

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
        with WorkerPool(2) as pool:
            with obs.observe() as session:
                pool.map(_counted, range(6), label="counted")
            assert session.counter("test.pool.tasks") == 6

    def test_spans_adopted_into_parent_trace(self):
        with WorkerPool(2) as pool:
            with obs.observe() as session:
                with obs.span("outer"):
                    pool.map(_counted, range(4), label="counted")
        names = [s.name for s, _ in session.tracer.all_spans()]
        assert "parallel.map" in names
        assert names.count("counted") == 4  # one adopted span per task
        assert names.count("test.pool.inner") == 4  # nested worker spans
        # Worker spans land under the parent's open span, not as roots.
        assert [root.name for root in session.tracer.roots] == ["outer"]

    def test_serial_map_spans(self):
        with obs.observe() as session:
            WorkerPool(1).map(_counted, range(3), label="counted")
        names = [s.name for s, _ in session.tracer.all_spans()]
        assert names.count("counted") == 3
        assert session.counter("test.pool.tasks") == 3
