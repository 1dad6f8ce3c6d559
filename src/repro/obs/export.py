"""Trace and metrics exporters.

Three output shapes, all fed from one :class:`~repro.obs.trace.Tracer`
and one :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`chrome_trace` — Chrome trace-event JSON (object form), loadable
  in Perfetto or ``chrome://tracing``.  Complete events (``ph="X"``) on
  one pid/tid; nesting is implied by interval containment, exactly how
  those viewers render flame charts.  The metrics snapshot rides along
  under a top-level ``"metrics"`` key (the format tolerates extra keys).
* :func:`flat_trace` — a flat JSON list of spans with explicit depth and
  path, convenient for scripting over without interval arithmetic.
* :func:`span_summary_table` / :func:`metrics_summary_table` — plain
  text via :func:`repro.utils.tables.format_table` for terminal output.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.utils.tables import format_table

TRACE_SCHEMA = "repro/trace/v1"

__all__ = [
    "TRACE_SCHEMA",
    "chrome_trace",
    "flat_trace",
    "monitor_counter_events",
    "write_chrome_trace",
    "write_flat_trace",
    "metrics_json",
    "write_metrics_json",
    "span_summary_table",
    "metrics_summary_table",
]


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars etc. to plain JSON types."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):  # pragma: no cover - defensive
            return str(value)
    return value


def _safe_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    return {k: _json_safe(v) for k, v in attrs.items()}


def _monitor_series(monitor: Any) -> list[dict[str, Any]]:
    """Normalise a monitor argument to a list of series dicts."""
    if monitor is None:
        return []
    if isinstance(monitor, list):
        return monitor
    return [monitor.series()]


def monitor_counter_events(
    monitor: Any, origin_s: float
) -> list[dict[str, Any]]:
    """Chrome counter events (``ph="C"``) from monitor resource series.

    One counter track per metric per series tag; timestamps are
    rebased onto the tracer origin (clamped at 0 — a monitor may start
    before the tracer).  ``monitor`` is a
    :class:`~repro.obs.monitor.ResourceMonitor` or a pre-extracted list
    of series dicts.
    """
    events: list[dict[str, Any]] = []
    for index, series in enumerate(_monitor_series(monitor)):
        tag = series.get("tag", f"series{index}")
        pid = series.get("pid", index)
        for sample in series.get("samples", []):
            ts = round(max(0.0, sample["t_s"] - origin_s) * 1e6, 3)
            for key, unit in (
                ("rss_mb", "mb"),
                ("cpu_s", "s"),
                ("open_fds", "fds"),
            ):
                value = sample.get(key)
                if value is None or value < 0:
                    continue
                events.append(
                    {
                        "name": f"{key} ({tag})",
                        "cat": "repro.monitor",
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "tid": 0,
                        "args": {unit: value},
                    }
                )
    return events


def chrome_trace(
    tracer: Tracer,
    registry: MetricsRegistry | None = None,
    monitor: Any = None,
) -> dict[str, Any]:
    """Trace-event JSON dict (``traceEvents`` + metrics block).

    With a ``monitor`` (a :class:`~repro.obs.monitor.ResourceMonitor`
    or list of series dicts), resource time-series are appended as
    Chrome counter events — Perfetto renders them as per-process
    counter tracks under the flame chart.
    """
    origin = tracer.origin_s
    events = []
    for sp, _depth in tracer.all_spans():
        events.append(
            {
                "name": sp.name,
                "cat": "repro",
                "ph": "X",
                "ts": round((sp.start_s - origin) * 1e6, 3),
                "dur": round(sp.duration_s * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": _safe_attrs(sp.attrs),
            }
        )
    events.extend(monitor_counter_events(monitor, origin))
    doc: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "origin_epoch_s": tracer.origin_epoch_s},
    }
    if registry is not None:
        doc["metrics"] = registry.snapshot()
    return doc


def flat_trace(
    tracer: Tracer, registry: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Flat span list with explicit depth/path, plus the metrics block."""
    origin = tracer.origin_s
    spans = []

    def emit(sp: Span, depth: int, path: str) -> None:
        spans.append(
            {
                "name": sp.name,
                "path": path,
                "depth": depth,
                "start_s": round(sp.start_s - origin, 9),
                "duration_s": round(sp.duration_s, 9),
                "attrs": _safe_attrs(sp.attrs),
                "num_children": len(sp.children),
            }
        )
        for child in sp.children:
            emit(child, depth + 1, f"{path}/{child.name}")

    for root in tracer.roots:
        emit(root, 0, root.name)
    doc: dict[str, Any] = {"schema": TRACE_SCHEMA, "spans": spans}
    if registry is not None:
        doc["metrics"] = registry.snapshot()
    return doc


def write_chrome_trace(
    tracer: Tracer,
    path: str | Path,
    registry: MetricsRegistry | None = None,
    monitor: Any = None,
) -> Path:
    """Write :func:`chrome_trace` as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(tracer, registry, monitor=monitor), indent=2) + "\n"
    )
    return path


def metrics_json(registry: MetricsRegistry) -> dict[str, Any]:
    """The final registry snapshot wrapped with a schema stamp."""
    return {"schema": TRACE_SCHEMA, "metrics": registry.snapshot()}


def write_metrics_json(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write :func:`metrics_json` (the ``--metrics PATH`` payload)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(metrics_json(registry), indent=2) + "\n")
    return path


def write_flat_trace(
    tracer: Tracer, path: str | Path, registry: MetricsRegistry | None = None
) -> Path:
    """Write :func:`flat_trace` as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(flat_trace(tracer, registry), indent=2) + "\n")
    return path


def span_summary_table(tracer: Tracer) -> str:
    """Per-span-name aggregate table: calls, total/self/mean/max seconds."""
    agg: dict[str, list[float]] = {}  # name -> [calls, total, self, max]
    order: list[str] = []
    for sp, _depth in tracer.all_spans():
        stats = agg.get(sp.name)
        if stats is None:
            agg[sp.name] = [1.0, sp.duration_s, sp.self_s, sp.duration_s]
            order.append(sp.name)
        else:
            stats[0] += 1.0
            stats[1] += sp.duration_s
            stats[2] += sp.self_s
            stats[3] = max(stats[3], sp.duration_s)
    rows = []
    for name in sorted(order, key=lambda n: -agg[n][1]):
        calls, total, self_s, longest = agg[name]
        rows.append(
            [
                name,
                int(calls),
                f"{total:.4f}",
                f"{self_s:.4f}",
                f"{total / calls:.4f}",
                f"{longest:.4f}",
            ]
        )
    return format_table(
        ["span", "calls", "total_s", "self_s", "mean_s", "max_s"], rows
    )


def metrics_summary_table(registry: MetricsRegistry) -> str:
    """Counters/gauges/histograms in one table."""
    snap = registry.snapshot()
    rows: list[list[object]] = []
    for name, value in snap["counters"].items():
        rows.append(["counter", name, _fmt(value)])
    for name, value in snap["gauges"].items():
        rows.append(["gauge", name, _fmt(value)])
    for name, stats in snap["histograms"].items():
        rows.append(
            [
                "histogram",
                name,
                f"n={stats['count']} mean={stats['mean']:.3f} "
                f"p50={_fmt(stats['p50'])} p90={_fmt(stats['p90'])} "
                f"p99={_fmt(stats['p99'])} "
                f"min={_fmt(stats['min'])} max={_fmt(stats['max'])}",
            ]
        )
    return format_table(["kind", "metric", "value"], rows)


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4f}"
