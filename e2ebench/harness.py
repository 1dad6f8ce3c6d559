"""Measurement plumbing shared by every workload.

Nothing here knows about HiGNN: run stamps, process-tree peak memory,
nearest-rank percentiles, and the open-loop request loop.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def usable_cores() -> int:
    """CPUs this process may run on (not the host's CPU count)."""
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(workers: int) -> dict:
    """Provenance attached to every result."""
    return {
        "commit": git_commit(),
        "usable_cores": usable_cores(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); NaN for no values."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return float("nan")
    rank = int(np.ceil(q / 100.0 * arr.size))
    return float(arr[min(max(rank, 1), arr.size) - 1])


def tail_percentile(values, top: float = 99.0) -> float:
    """The highest percentile, up to ``top``, with ten samples beyond it.

    ``top`` itself once there are enough samples (1000 for p99, 100 for
    p90); below 20 samples this is the median.
    """
    n = len(values)
    return percentile(values, min(top, max(50.0, 100.0 * (1.0 - 10.0 / max(n, 1)))))


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------
def _descendants(pid: int) -> list[int]:
    found, stack = [], [pid]
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            stack.extend(kids)
    return found


def _hwm_mb(pid: int) -> float:
    """The kernel's resident-set high-water mark (VmHWM) of ``pid``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _reset_hwm(pid: int) -> bool:
    """Reset ``pid``'s high-water mark to its current RSS (Linux >= 4.0)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


class PeakMemory:
    """Peak resident memory of this process tree during the ``with`` block.

    Read from the kernel's high-water marks, reset on entry, so the
    figure is exact and costs nothing while the block runs (a sampling
    thread would compete with the measured work for the interpreter
    lock).  The peak is the sum over this process and the children alive
    at exit, such as pool workers started during set-up; pages shared
    between processes count once per process.  Where the reset is
    refused, the marks cover each process's whole life.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self.reset = False

    def __enter__(self) -> "PeakMemory":
        pids = [os.getpid(), *_descendants(os.getpid())]
        self.reset = all([_reset_hwm(pid) for pid in pids])
        return self

    def __exit__(self, *exc_info: object) -> None:
        pids = [os.getpid(), *_descendants(os.getpid())]
        self.peak_mb = sum(_hwm_mb(pid) for pid in pids)


# ---------------------------------------------------------------------------
# Open-loop load
# ---------------------------------------------------------------------------
def poisson_schedule(rng: np.random.Generator, rate: float, duration_s: float) -> np.ndarray:
    """Sorted arrival offsets (s) of a Poisson process over ``duration_s``."""
    n = max(1, int(rng.poisson(rate * duration_s)))
    return np.sort(rng.uniform(0.0, duration_s, size=n))


@dataclass
class LoopStats:
    """What one open-loop segment measured; arrays are per request."""

    latency_ms: np.ndarray  # due time -> slate returned
    wait_ms: np.ndarray  # due time -> start of service
    backlog_max: int  # most requests due but not yet started
    gen_late_ms: list = field(default_factory=list)  # idle-loop wake-up lag
    failed: int = 0
    slates: list = field(default_factory=list)  # slate per request, in order
    busy_s: float = 0.0  # time inside serve()
    oracle: list = field(default_factory=list)  # caller's sampled requests
    errors: list = field(default_factory=list)  # what raised requests raised

    @property
    def requests(self) -> int:
        return len(self.latency_ms)


def run_open_loop(
    serve,
    users: np.ndarray,
    due_s: np.ndarray,
    *,
    batch_cap: int,
    on_tick=None,
    t0: float | None = None,
) -> LoopStats:
    """Serve ``users[i]`` at ``due_s[i]`` seconds from now, open loop.

    One thread plays both sides: whenever it is free it takes every
    request already due (at most ``batch_cap``) and hands them to
    ``serve`` as one call.  Requests keep arriving on schedule while it
    is busy, so a stall shows up as queueing delay in later requests'
    latency, which is timed from when each was due.  ``on_tick(now)`` runs
    before each pick-up (the ingest workload replays writes there) and
    may block the loop just as a real single-threaded server would be.
    ``t0`` (a ``perf_counter`` reading) is when the schedule starts;
    default now.
    """
    n = len(due_s)
    latency = np.empty(n)
    wait = np.empty(n)
    stats = LoopStats(latency, wait, 0)
    clock = time.perf_counter
    if t0 is None:
        t0 = clock()
    i = 0
    while i < n:
        now = clock() - t0
        if on_tick is not None:
            on_tick(now)
            now = clock() - t0
        if due_s[i] > now:
            gap = due_s[i] - now
            if gap > 0.002:
                time.sleep(gap - 0.001)
            while clock() - t0 < due_s[i]:
                pass
            stats.gen_late_ms.append((clock() - t0 - due_s[i]) * 1e3)
            continue
        queued = int(np.searchsorted(due_s, now, side="right")) - i
        stats.backlog_max = max(stats.backlog_max, queued)
        j = i + min(queued, batch_cap)
        wait[i:j] = (now - due_s[i:j]) * 1e3
        start = clock()
        try:
            slates = serve(users[i:j])
        except Exception as exc:  # a raised request is a failed request
            stats.failed += j - i
            stats.errors.append(f"requests {i}..{j - 1}: {exc!r}")
            slates = [None] * (j - i)
        done = clock()
        stats.busy_s += done - start
        latency[i:j] = (done - t0 - due_s[i:j]) * 1e3
        stats.slates.extend(slates)
        i = j
    return stats
