"""Exporters: Chrome trace events, flat dump, summary tables."""

import json

import numpy as np

from repro import obs


def _session_with_work():
    with obs.observe() as session:
        with obs.span("outer", level=np.int64(1)):
            with obs.span("inner"):
                obs.counter_add("work_done", 10)
        obs.observe_value("sizes", 4.0)
    return session


class TestChromeTrace:
    def test_events_shape(self):
        doc = _session_with_work().chrome_trace()
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"pid", "tid", "args"} <= set(event)

    def test_child_interval_contained_in_parent(self):
        events = _session_with_work().chrome_trace()["traceEvents"]
        outer, inner = events
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_metrics_block_and_json_round_trip(self, tmp_path):
        session = _session_with_work()
        path = session.write_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["metrics"]["counters"]["work_done"] == 10
        assert doc["metrics"]["histograms"]["sizes"]["count"] == 1

    def test_numpy_attrs_coerced(self, tmp_path):
        session = _session_with_work()
        doc = json.loads(session.write_chrome_trace(tmp_path / "t.json").read_text())
        assert doc["traceEvents"][0]["args"]["level"] == 1


class TestFlatTrace:
    def test_depth_and_path(self, tmp_path):
        session = _session_with_work()
        doc = json.loads(session.write_flat_trace(tmp_path / "flat.json").read_text())
        spans = {s["name"]: s for s in doc["spans"]}
        assert spans["outer"]["depth"] == 0
        assert spans["inner"]["depth"] == 1
        assert spans["inner"]["path"] == "outer/inner"
        assert spans["outer"]["num_children"] == 1
        assert doc["schema"] == obs.TRACE_SCHEMA


class TestSummaryTables:
    def test_span_summary_aggregates(self):
        with obs.observe() as session:
            for _ in range(3):
                with obs.span("repeated"):
                    pass
        table = session.span_summary()
        assert "repeated" in table
        assert " 3 " in table  # call count column

    def test_metrics_summary_lists_all_kinds(self):
        with obs.observe() as session:
            obs.counter_add("c", 1)
            obs.gauge_set("g", 2)
            obs.observe_value("h", 3)
        table = session.metrics_summary()
        for token in ("counter", "gauge", "histogram", "c", "g", "h"):
            assert token in table

    def test_empty_session_tables_render(self):
        with obs.observe() as session:
            pass
        assert "span" in session.span_summary()
        assert "metric" in session.metrics_summary()

    def test_histogram_row_reports_percentiles(self):
        with obs.observe() as session:
            for v in range(1, 101):
                obs.observe_value("latency", float(v))
        table = session.metrics_summary()
        assert "p50=" in table and "p90=" in table and "p99=" in table


class TestExportEdgeCases:
    def test_empty_tracer_exports_cleanly(self, tmp_path):
        with obs.observe() as session:
            pass
        doc = session.chrome_trace()
        assert doc["traceEvents"] == []
        assert doc["otherData"]["schema"] == obs.TRACE_SCHEMA
        flat = json.loads(session.write_flat_trace(tmp_path / "f.json").read_text())
        assert flat["spans"] == []

    def test_non_json_safe_attrs_coerced_or_stringified(self, tmp_path):
        with obs.observe() as session:
            with obs.span(
                "s",
                scalar=np.float32(1.5),
                array=np.arange(3),  # multi-element: .item() raises
                flag=np.bool_(True),
            ):
                pass
        path = session.write_chrome_trace(tmp_path / "t.json")
        args = json.loads(path.read_text())["traceEvents"][0]["args"]
        assert args["scalar"] == 1.5
        assert args["flag"] is True
        assert isinstance(args["array"], str)  # stringified, not dropped

    def test_metrics_json_round_trip(self, tmp_path):
        with obs.observe() as session:
            obs.counter_add("c", 2)
            obs.observe_value("h", 1.0)
            obs.gauge_set("peak", 7.0)
        path = obs.write_metrics_json(session.registry, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == obs.TRACE_SCHEMA
        assert doc["metrics"]["counters"]["c"] == 2
        assert doc["metrics"]["histograms"]["h"]["p50"] > 0
        assert doc["metrics"]["gauges"]["peak"] == 7.0


class TestMonitorCounterEvents:
    def _series(self, samples, tag="main", pid=123):
        return [{"tag": tag, "pid": pid, "samples": samples}]

    def test_counter_events_shape_and_rebase(self):
        series = self._series(
            [{"t_s": 10.0, "rss_mb": 50.0, "cpu_s": 1.0, "open_fds": 8}]
        )
        events = obs.monitor_counter_events(series, origin_s=9.0)
        assert {e["name"] for e in events} == {
            "rss_mb (main)",
            "cpu_s (main)",
            "open_fds (main)",
        }
        for event in events:
            assert event["ph"] == "C"
            assert event["cat"] == "repro.monitor"
            assert event["pid"] == 123
            assert event["ts"] == 1e6  # rebased to the tracer origin

    def test_pre_origin_samples_clamped_to_zero(self):
        series = self._series([{"t_s": 5.0, "rss_mb": 1.0}])
        events = obs.monitor_counter_events(series, origin_s=9.0)
        assert events and all(e["ts"] == 0.0 for e in events)

    def test_missing_and_negative_values_skipped(self):
        series = self._series(
            [{"t_s": 0.0, "rss_mb": -1.0, "cpu_s": None, "open_fds": 4}]
        )
        events = obs.monitor_counter_events(series, origin_s=0.0)
        assert [e["name"] for e in events] == ["open_fds (main)"]

    def test_counter_events_ride_along_in_chrome_trace(self, tmp_path):
        with obs.observe() as session:
            with obs.span("work"):
                with obs.ResourceMonitor(interval_s=0.01) as mon:
                    mon.sample_now()
        path = session.write_chrome_trace(tmp_path / "t.json", )
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X"}  # no monitor attached to the session
        session.monitor = mon
        doc = session.chrome_trace()
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "C"}
        json.dumps(doc)  # whole document must stay JSON-serialisable
