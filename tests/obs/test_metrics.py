"""Metrics registry: counters, gauges, histograms, global fast path."""

import sys
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter_add("hits")
        reg.counter_add("hits", 4)
        assert reg.counter("hits") == 5
        assert reg.counter("misses") == 0

    def test_gauge_holds_last_value(self):
        reg = MetricsRegistry()
        reg.gauge_set("level", 1)
        reg.gauge_set("level", 3)
        assert reg.gauges["level"] == 3.0

    def test_histogram_summary_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 5.0, 3.0):
            reg.observe("sizes", v)
        snap = reg.snapshot()["histograms"]["sizes"]
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 5.0
        assert snap["mean"] == pytest.approx(3.0)

    def test_snapshot_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter_add("b")
        reg.counter_add("a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must be serialisable

    def test_concurrent_updates_are_all_kept(self):
        # The pool's worker threads record into one registry at once; a
        # short switch interval makes a lost read-modify-write likely.
        reg = MetricsRegistry()

        def record():
            for i in range(5000):
                reg.counter_add("hits")
                reg.observe("sizes", i % 7)

        threads = [threading.Thread(target=record) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 20000
        assert snap["histograms"]["sizes"]["count"] == 20000
        assert sum(snap["histograms"]["sizes"]["buckets"].values()) == 20000


class TestPercentileHistograms:
    def test_snapshot_reports_percentiles(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("lat", float(v))
        snap = reg.snapshot()["histograms"]["lat"]
        for key in ("p50", "p90", "p99"):
            assert key in snap
        # Log buckets bound relative error at ~1/16 of the value.
        assert snap["p50"] == pytest.approx(50.0, rel=0.10)
        assert snap["p90"] == pytest.approx(90.0, rel=0.10)
        assert snap["p99"] == pytest.approx(99.0, rel=0.10)
        assert snap["min"] <= snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]

    def test_percentiles_clamped_to_observed_range(self):
        reg = MetricsRegistry()
        reg.observe("one", 7.0)
        snap = reg.snapshot()["histograms"]["one"]
        assert snap["p50"] == snap["p90"] == snap["p99"] == 7.0

    def test_nonpositive_values_share_sentinel_bucket(self):
        reg = MetricsRegistry()
        for v in (-2.0, 0.0, 4.0):
            reg.observe("signed", v)
        snap = reg.snapshot()["histograms"]["signed"]
        assert snap["count"] == 3
        assert snap["min"] == -2.0
        assert snap["max"] == 4.0
        # p50 falls in the non-positive sentinel bucket, clamped >= min.
        assert -2.0 <= snap["p50"] <= 0.0

    def test_bucket_counts_are_exact_integers(self):
        reg = MetricsRegistry()
        for _ in range(5):
            reg.observe("same", 3.0)
        buckets = reg.snapshot()["histograms"]["same"]["buckets"]
        assert list(buckets.values()) == [5]

    def test_bucket_index_deterministic_across_magnitudes(self):
        from repro.obs.metrics import bucket_index, bucket_value

        for v in (1e-9, 0.1, 1.0, 3.7, 1024.0, 1e12):
            idx = bucket_index(v)
            assert bucket_index(v) == idx
            rep = bucket_value(idx)
            assert rep == pytest.approx(v, rel=1.0 / 16)


class TestModuleFastPath:
    def test_disabled_calls_are_noops(self):
        assert not obs.metrics_enabled()
        obs.counter_add("ignored", 5)
        obs.gauge_set("ignored", 1.0)
        obs.observe_value("ignored", 2.0)
        assert obs.current_registry() is None

    def test_enabled_calls_record(self):
        with obs.observe() as session:
            obs.counter_add("c", 2)
            obs.gauge_set("g", 7)
            obs.observe_value("h", 1.5)
        snap = session.registry.snapshot()
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"]["count"] == 1
