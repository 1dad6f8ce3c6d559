"""ResourceMonitor: lifecycle, sampling, heartbeats, progress rendering.

The monitor follows the repo's owner-destroys contract: the sampler
thread lives exactly as long as the owning ``with`` block, and
``active_monitors()`` must be empty afterwards (the default-on teardown
fixture in ``tests/conftest.py`` enforces this suite-wide).
"""

import io
import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.obs.monitor import (
    ResourceMonitor,
    _ProgressRenderer,
    active_monitors,
    sample_resources,
)


class TestSampling:
    def test_sample_resources_shape(self):
        sample = sample_resources()
        assert set(sample) == {"t_s", "rss_mb", "cpu_s", "open_fds"}
        assert sample["rss_mb"] > 0  # /proc/self/statm is readable here
        assert sample["cpu_s"] >= 0
        assert sample["open_fds"] > 0

    def test_series_is_json_ready_and_tagged(self):
        with ResourceMonitor(interval_s=0.005, tag="unit") as mon:
            time.sleep(0.02)
        series = mon.series()
        assert series["tag"] == "unit"
        assert series["pid"] == os.getpid()
        assert series["interval_s"] == 0.005
        assert len(series["samples"]) >= 2  # start + final at minimum
        json.dumps(series)

    def test_background_thread_samples_at_interval(self):
        with ResourceMonitor(interval_s=0.005) as mon:
            time.sleep(0.05)
        # ~10 expected; accept wide scheduling noise but demand >2
        # (i.e. more than just the start/stop samples).
        assert len(mon.samples) > 2

    def test_peak_rss_positive_and_at_least_sampled(self):
        with ResourceMonitor(interval_s=0.01) as mon:
            time.sleep(0.02)
        sampled = max(s["rss_mb"] for s in mon.samples)
        assert mon.peak_rss_mb >= sampled > 0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ResourceMonitor(interval_s=0.0)


class TestLifecycle:
    def test_with_block_owns_thread(self):
        with ResourceMonitor(interval_s=0.01) as mon:
            assert mon.running
            assert mon in active_monitors()
        assert not mon.running
        assert mon not in active_monitors()

    def test_stop_is_idempotent(self):
        with ResourceMonitor(interval_s=0.01) as mon:
            pass
        before = len(mon.samples)
        mon.stop()
        assert len(mon.samples) == before

    def test_restart_rejected(self):
        with ResourceMonitor(interval_s=0.01) as mon:
            pass
        with pytest.raises(RuntimeError):
            mon.start()

    def test_stop_noops_off_owner_pid(self):
        """A forked copy must not try to join the owner's thread."""
        with ResourceMonitor(interval_s=0.01) as mon:
            mon._owner_pid = os.getpid() + 1  # simulate the forked child
            mon.stop()
            assert mon._thread is not None  # untouched
            mon._owner_pid = os.getpid()  # restore so __exit__ cleans up
        assert not mon.running

    def test_enter_installs_and_exit_restores_global(self):
        assert obs.current_monitor() is None
        with ResourceMonitor(interval_s=0.01) as outer:
            assert obs.current_monitor() is outer
            with ResourceMonitor(interval_s=0.01) as inner:
                assert obs.current_monitor() is inner
            assert obs.current_monitor() is outer
        assert obs.current_monitor() is None

    def test_stop_records_peak_gauge(self):
        with obs.observe() as session:
            with ResourceMonitor(interval_s=0.01) as mon:
                time.sleep(0.01)
        snap = session.registry.snapshot()
        assert snap["gauges"]["monitor.peak_rss_mb"] == mon.peak_rss_mb > 0


class TestHeartbeats:
    def test_module_heartbeat_noop_without_monitor(self):
        assert not obs.monitoring_enabled()
        obs.heartbeat("ignored", 1, 10)  # must not raise

    def test_heartbeat_tracks_progress_and_eta(self):
        with ResourceMonitor(interval_s=1.0) as mon:
            obs.heartbeat("embed", 0, 100)
            time.sleep(0.02)
            state = mon.heartbeat("embed", 50, 100, frontier=7)
        assert state["done"] == 50.0
        assert state["total"] == 100.0
        assert state["beats"] == 2
        assert state["rate"] > 0
        assert state["eta_s"] == pytest.approx(50.0 / state["rate"], rel=1e-6)
        assert state["extra"] == {"frontier": 7}

    def test_heartbeat_without_total_has_no_eta(self):
        with ResourceMonitor(interval_s=1.0) as mon:
            time.sleep(0.005)
            state = mon.heartbeat("scan", 10)
        assert state["total"] is None
        assert state["eta_s"] is None

    def test_heartbeats_exported_in_series(self):
        with ResourceMonitor(interval_s=1.0) as mon:
            mon.heartbeat("build", 3, 9)
        series = mon.series()
        assert series["heartbeats"]["build"]["done"] == 3.0
        json.dumps(series)

    def test_numpy_extras_coerced_json_safe(self):
        np = pytest.importorskip("numpy")
        with ResourceMonitor(interval_s=1.0) as mon:
            mon.heartbeat("job", 1, 2, frontier=np.int64(5))
        json.dumps(mon.series())


class TestProgressRenderer:
    def test_renders_single_line_with_eta(self):
        buf = io.StringIO()
        with ResourceMonitor(
            interval_s=1.0, progress_stream=buf
        ) as mon:
            obs.heartbeat("shard.embed", 0, 1000)
            time.sleep(0.11)  # past the renderer throttle
            obs.heartbeat("shard.embed", 500, 1000, shard=3)
        out = buf.getvalue()
        assert "\r" in out
        assert "[shard.embed]" in out
        assert "50.0%" in out
        assert "shard=3" in out
        assert out.endswith("\n")  # finish() sealed the line
        assert mon.running is False

    def test_renderer_throttles(self):
        buf = io.StringIO()
        renderer = _ProgressRenderer(buf, min_interval_s=10.0)
        renderer.render("job", {"done": 1.0, "total": 2.0})
        renderer.render("job", {"done": 2.0, "total": 2.0})
        assert buf.getvalue().count("\r") == 1

    def test_renderer_formats_counts(self):
        from repro.obs.monitor import _fmt_count

        assert _fmt_count(999) == "999"
        assert _fmt_count(50_000) == "50k"
        assert _fmt_count(2_500_000) == "2.5M"


@pytest.mark.parallel
class TestWorkerMonitors:
    def test_worker_threads_count_in_the_one_series(self):
        """Pool tasks run on threads of the monitored process: memory a
        task holds shows in the one series the monitor records."""
        from repro.parallel import WorkerPool

        with ResourceMonitor(interval_s=0.005, tag="parent") as mon:
            base = mon.samples[0]["rss_mb"]
            with WorkerPool(2) as pool:
                out = pool.map(_hold_64mb, [1, 2])
        assert out == [2, 4]
        series = mon.series()
        assert series["tag"] == "parent" and series["pid"] == os.getpid()
        # Two tasks each touch 64 MB at once.
        assert series["peak_rss_mb"] - base > 100

    def test_no_worker_monitor_without_parent_monitor(self):
        from repro.parallel import WorkerPool

        with obs.observe() as session:
            with WorkerPool(2) as pool:
                pool.map(_slow_double, [1, 2])
        # no monitor active: a threaded map records no peak gauge
        assert "monitor.peak_rss_mb" not in session.registry.snapshot()["gauges"]


def _slow_double(task, _ctx):
    time.sleep(0.02)
    return task * 2


def _hold_64mb(task, _ctx):
    block = np.ones(8 * 2**20)  # 64 MB, every page touched
    time.sleep(0.2)
    return task * 2 + int(block[0]) - 1
