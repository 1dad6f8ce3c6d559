"""Continuous resource monitoring and progress heartbeats.

:class:`ResourceMonitor` owns a background daemon thread that samples
RSS / CPU time / open file descriptors at a configurable interval and
records them as a time-series, so long runs (the 10^6-vertex sharded
embeds, multi-epoch training) report *measured* peak memory and a
resource trajectory instead of an analytic estimate.  Samples come from
``/proc/self/statm`` / ``os.times()`` / ``/proc/self/fd`` with a
``resource.getrusage`` fallback — no third-party dependency.

Lifecycle mirrors :class:`~repro.shard.storage.ShardedCSR`: the owner
enters a ``with`` block, the sampler thread lives exactly as long as
the block, and :func:`active_monitors` exposes every live monitor so test teardown can
assert none leaked (lint rule RPR304 flags constructions outside a
``with`` item for the same reason).  Entering also installs the monitor
as the module-global target of :func:`heartbeat`, restoring the
previous one on exit — the same shadowing contract as
``obs.observe()``.

One process: the pool's tasks run on threads of the process that owns
the monitor, so its samples cover all of their memory and CPU.
:meth:`ResourceMonitor.stop` still no-ops off the owner pid: a forked
copy inherits the monitor object but not its sampler thread.

Heartbeats are the progress half: hot loops call
:func:`heartbeat("shard.embed", done, total)` — one global read and a
``None`` test when no monitor is installed — and the monitor tracks
per-name progress (rate, ETA) in the series.  With ``progress=True``
(the CLI's ``--progress`` flag) a throttled single-line renderer mirrors
the latest heartbeat to stderr, so minute-long runs are no longer
silent.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, TextIO

from repro.obs.metrics import gauge_set

__all__ = [
    "DEFAULT_INTERVAL_S",
    "ResourceMonitor",
    "heartbeat",
    "current_monitor",
    "install_monitor",
    "uninstall_monitor",
    "monitoring_enabled",
    "active_monitors",
    "sample_resources",
]

# Default sampling interval: fine enough to catch sub-second RSS spikes
# in the shard/bench runs, coarse enough to stay invisible in profiles.
# Stamped into bench reports as ``telemetry.sampler_interval_s``.
DEFAULT_INTERVAL_S = 0.05

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
_STATM_PATH = "/proc/self/statm"
_STATUS_PATH = "/proc/self/status"
_FD_DIR = "/proc/self/fd"

# ru_maxrss is kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1.0 / 1024.0 if sys.platform != "darwin" else 1.0 / (1024.0 * 1024.0)


def _rss_mb() -> float:
    """Current resident set size in MB (0.0 when /proc is unavailable)."""
    try:
        with open(_STATM_PATH, "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE / (1024.0 * 1024.0)
    except (OSError, IndexError, ValueError):
        return 0.0


def _peak_rss_mb() -> float:
    """Process high-water RSS in MB (monotone): ``VmHWM`` from
    ``/proc/self/status``, else ``getrusage``.

    ``ru_maxrss`` survives ``exec``: a freshly spawned child reports at
    least its spawner's RSS at the fork, so it is only the fallback.
    """
    try:
        with open(_STATUS_PATH, "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, IndexError, ValueError):
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_SCALE


def _open_fds() -> int:
    try:
        return len(os.listdir(_FD_DIR))
    except OSError:
        return -1


def sample_resources() -> dict[str, float]:
    """One point-in-time resource sample (JSON-ready)."""
    times = os.times()
    return {
        "t_s": time.perf_counter(),
        "rss_mb": _rss_mb(),
        "cpu_s": times.user + times.system,
        "open_fds": _open_fds(),
    }


# ---------------------------------------------------------------------------
# Live-monitor registry (leak sweeps, mirrors active_shard_dirs())
# ---------------------------------------------------------------------------
_ACTIVE: set["ResourceMonitor"] = set()


def active_monitors() -> set["ResourceMonitor"]:
    """Monitors whose sampler thread is currently running (this process).

    Test teardown asserts this is empty — a non-empty set means someone
    started a monitor outside an owning ``with`` block (RPR304) or let
    one escape its scope.
    """
    return {m for m in _ACTIVE if m._owner_pid == os.getpid()}


class _ProgressRenderer:
    """Throttled single-line ``\\r`` status renderer for heartbeats."""

    def __init__(self, stream: TextIO | None = None, min_interval_s: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._last_render_s = -float("inf")
        self._dirty = False

    def render(self, name: str, state: dict[str, Any]) -> None:
        now = time.perf_counter()
        if now - self._last_render_s < self.min_interval_s:
            return
        self._last_render_s = now
        done, total = state["done"], state["total"]
        parts = [f"[{name}]"]
        if total:
            parts.append(f"{_fmt_count(done)}/{_fmt_count(total)}")
            parts.append(f"{100.0 * done / total:5.1f}%")
        else:
            parts.append(_fmt_count(done))
        rate = state.get("rate")
        if rate:
            parts.append(f"{_fmt_count(rate)}/s")
        eta = state.get("eta_s")
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        for key, value in state.get("extra", {}).items():
            parts.append(f"{key}={value}")
        line = " ".join(parts)
        self.stream.write("\r" + line[:120].ljust(80))
        self.stream.flush()
        self._dirty = True

    def finish(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


def _fmt_count(value: float) -> str:
    value = float(value)
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e4:
        return f"{value / 1e3:.0f}k"
    return str(int(value)) if value.is_integer() else f"{value:.1f}"


class ResourceMonitor:
    """Owning handle on a background resource sampler.

    Use as a context manager — the sampler thread starts on ``__enter__``
    and is joined on ``__exit__``; entering installs the monitor as the
    global :func:`heartbeat` target (shadowing any previous one)::

        with ResourceMonitor(interval_s=0.05, progress=True) as mon:
            run_long_job()
        print(mon.peak_rss_mb)

    ``tag`` labels the series (default ``pid<N>``).
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        tag: str | None = None,
        progress: bool = False,
        progress_stream: TextIO | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.tag = tag or f"pid{os.getpid()}"
        self.samples: list[dict[str, float]] = []
        self.heartbeats: dict[str, dict[str, Any]] = {}
        self._renderer = (
            _ProgressRenderer(progress_stream) if progress or progress_stream else None
        )
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._owner_pid: int | None = None
        self._prev_monitor: "ResourceMonitor | None" = None
        self._started = False

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ResourceMonitor":
        if self._started:
            raise RuntimeError("ResourceMonitor cannot be restarted")
        self._started = True
        self._owner_pid = os.getpid()
        self.sample_now()
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-monitor-{self.tag}", daemon=True
        )
        self._thread.start()
        _ACTIVE.add(self)
        return self

    def stop(self) -> None:
        """Join the sampler and seal the series (idempotent, owner-only)."""
        if self._owner_pid != os.getpid():
            return  # forked copy: the thread belongs to the owner process
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join()
            self.sample_now()
        _ACTIVE.discard(self)
        if self._renderer is not None:
            self._renderer.finish()
        peak = self.peak_rss_mb
        if peak:
            gauge_set("monitor.peak_rss_mb", peak)

    def __enter__(self) -> "ResourceMonitor":
        self.start()
        self._prev_monitor = current_monitor()
        install_monitor(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
        if self._prev_monitor is None:
            uninstall_monitor()
        else:
            install_monitor(self._prev_monitor)
        self._prev_monitor = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_now()

    # -- sampling ------------------------------------------------------
    def sample_now(self) -> dict[str, float]:
        """Take (and record) one sample immediately."""
        sample = sample_resources()
        with self._lock:
            self.samples.append(sample)
        return sample

    @property
    def peak_rss_mb(self) -> float:
        """Measured peak RSS in MB: max(sampled RSS, high-water RSS)."""
        with self._lock:
            sampled = max((s["rss_mb"] for s in self.samples), default=0.0)
        return max(sampled, _peak_rss_mb())

    # -- heartbeats ----------------------------------------------------
    def heartbeat(
        self, name: str, done: float, total: float | None = None, **extra: Any
    ) -> dict[str, Any]:
        """Record progress for ``name``; returns the updated state.

        ``done``/``total`` drive rate and ETA (ETA omitted without a
        total); extra keyword pairs ride along (e.g. ``frontier=123``)
        and show up in the rendered status line.
        """
        now = time.perf_counter()
        with self._lock:
            state = self.heartbeats.get(name)
            if state is None:
                state = self.heartbeats[name] = {"first_t_s": now, "beats": 0}
            elapsed = now - state["first_t_s"]
            rate = done / elapsed if elapsed > 0 and done > 0 else None
            eta = (
                (total - done) / rate
                if rate and total is not None and total > done
                else None
            )
            state.update(
                {
                    "done": float(done),
                    "total": float(total) if total is not None else None,
                    "rate": rate,
                    "eta_s": eta,
                    "t_s": now,
                    "beats": state["beats"] + 1,
                    "extra": {k: _json_value(v) for k, v in extra.items()},
                }
            )
            snapshot = dict(state)
        if self._renderer is not None:
            self._renderer.render(name, snapshot)
        return snapshot

    # -- series export -------------------------------------------------
    def series(self) -> dict[str, Any]:
        """This process's series as a JSON-ready dict."""
        with self._lock:
            return {
                "tag": self.tag,
                "pid": os.getpid(),
                "interval_s": self.interval_s,
                "samples": [dict(s) for s in self.samples],
                "heartbeats": {k: dict(v) for k, v in self.heartbeats.items()},
                "peak_rss_mb": max(
                    (s["rss_mb"] for s in self.samples), default=0.0
                ),
            }


def _json_value(value: Any) -> Any:
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):  # pragma: no cover - defensive
            return str(value)
    return value


# ---------------------------------------------------------------------------
# Module-level fast path
# ---------------------------------------------------------------------------
_MONITOR: ResourceMonitor | None = None


def heartbeat(name: str, done: float, total: float | None = None, **extra: Any) -> None:
    """Record progress on the active monitor (no-op if none installed)."""
    monitor = _MONITOR
    if monitor is not None:
        monitor.heartbeat(name, done, total, **extra)


def current_monitor() -> ResourceMonitor | None:
    """The installed monitor, or None while monitoring is disabled."""
    return _MONITOR


def monitoring_enabled() -> bool:
    return _MONITOR is not None


def install_monitor(monitor: ResourceMonitor) -> ResourceMonitor:
    """Install the module-global heartbeat target (no thread is started)."""
    global _MONITOR
    _MONITOR = monitor
    return monitor


def uninstall_monitor() -> ResourceMonitor | None:
    """Remove the global monitor; returns it."""
    global _MONITOR
    monitor, _MONITOR = _MONITOR, None
    return monitor
