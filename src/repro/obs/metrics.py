"""Runtime metrics registry: counters, gauges and percentile histograms.

Counters accumulate monotonically (``vertices_embedded``,
``samples_drawn``), gauges hold the last written value, and histograms
record samples into fixed log-spaced buckets (HDR-histogram style) so
``snapshot()`` can report p50/p90/p99 alongside count/sum/min/max
without storing every sample.

Bucketing is deterministic: a sample lands in the same bucket whichever
thread observes it, and bucket counts are integers, so the state a
``workers=2`` store embed leaves equals the ``workers=1`` run's — the
property ``tests/parallel/test_parallel_equivalence.py`` pins.  Updates
take the registry's lock, because the pool's worker threads record
counters inside their tasks.

Like :mod:`repro.obs.trace`, call sites go through module-level helpers
(:func:`counter_add`, :func:`gauge_set`, :func:`observe`) that check a
module-global registry; with none installed each call is one global
read and a ``None`` test, cheap enough to leave in hot loops (the lock
is only taken once a registry is installed).
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = [
    "MetricsRegistry",
    "counter_add",
    "gauge_set",
    "observe",
    "current_registry",
    "install_registry",
    "uninstall_registry",
    "metrics_enabled",
]

# Sub-buckets per power of two.  8 sub-buckets bound the relative
# quantile error at ~1/16 of the value — plenty for latency/size
# reporting — while keeping bucket maps tiny (a series spanning six
# orders of magnitude touches < 160 buckets).
_SUBBUCKETS = 8

# Sentinel bucket index for samples <= 0 (log buckets only cover
# positive values).  Far below any frexp exponent (subnormal doubles
# bottom out near e = -1073, i.e. index ~ -8584).
_NONPOS_BUCKET = -(1 << 30)


def bucket_index(value: float) -> int:
    """Deterministic log-bucket index for ``value``.

    Positive values are split into ``_SUBBUCKETS`` linear sub-buckets
    per power of two via :func:`math.frexp` (no floating log, so the
    index is exactly reproducible).  Values <= 0 share one sentinel
    bucket.
    """
    if value <= 0.0:
        return _NONPOS_BUCKET
    m, e = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
    sub = int((m - 0.5) * (2 * _SUBBUCKETS))
    if sub >= _SUBBUCKETS:  # m == 1.0 - ulp edge
        sub = _SUBBUCKETS - 1
    return e * _SUBBUCKETS + sub


def bucket_value(index: int) -> float:
    """Representative (midpoint) value of bucket ``index``."""
    if index == _NONPOS_BUCKET:
        return 0.0
    e, sub = divmod(index, _SUBBUCKETS)
    return math.ldexp(0.5 + (sub + 0.5) / (2 * _SUBBUCKETS), e)


class _Histogram:
    """Streaming summary stats plus exact log-bucket counts."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile from bucket midpoints, clamped to [min, max]."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= rank:
                return min(max(bucket_value(idx), self.min), self.max)
        return self.max  # pragma: no cover - rank always reachable

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.sum / self.count if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {idx: self.buckets[idx] for idx in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Named counters, gauges and log-bucket percentile histograms.

    Every update takes one lock, so tasks on the pool's worker threads
    may record into the caller's registry.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, _Histogram] = {}
        self._lock = threading.Lock()

    def counter_add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = _Histogram()
            hist.observe(value)

    def counter(self, name: str) -> float:
        """Current counter value (0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump of every metric.

        Histogram entries carry count/sum/min/max/mean plus p50/p90/p99
        (nearest-rank over bucket midpoints, clamped to the observed
        range) and the raw ``buckets`` map.
        """
        with self._lock:
            return {
                "counters": {k: self.counters[k] for k in sorted(self.counters)},
                "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
                "histograms": {
                    name: self.histograms[name].snapshot()
                    for name in sorted(self.histograms)
                },
            }


# ---------------------------------------------------------------------------
# Module-level fast path
# ---------------------------------------------------------------------------
_REGISTRY: MetricsRegistry | None = None


def counter_add(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` on the active registry (no-op if none)."""
    registry = _REGISTRY
    if registry is not None:
        registry.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` on the active registry (no-op if none)."""
    registry = _REGISTRY
    if registry is not None:
        registry.gauge_set(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the active registry (no-op if none)."""
    registry = _REGISTRY
    if registry is not None:
        registry.observe(name, value)


def current_registry() -> MetricsRegistry | None:
    """The installed registry, or None while metrics are disabled."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _REGISTRY is not None


def install_registry(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) the module-global registry."""
    global _REGISTRY
    _REGISTRY = registry or MetricsRegistry()
    return _REGISTRY


def uninstall_registry() -> MetricsRegistry | None:
    """Remove the global registry; returns it."""
    global _REGISTRY
    registry, _REGISTRY = _REGISTRY, None
    return registry
