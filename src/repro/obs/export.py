"""Trace/metrics exporters: ``chrome://tracing`` JSON and flat JSON.

The chrome-trace form is the Trace Event Format's complete-event (``"X"``)
flavour: one object per ring record (an event is a zero-length span) with
microsecond ``ts``/``dur``, ``pid``/``tid`` identity, and the record's
attributes under ``args``.  Load the file in
``chrome://tracing`` / Perfetto to see the nested phases per thread and
process.  The flat form aggregates spans by name (count, total/mean wall
time) next to every counter and gauge -- the machine-readable summary the
CI smoke run and the benches diff against.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import Tracer, get_tracer

__all__ = [
    "chrome_trace",
    "dump_chrome_trace",
    "flat_report",
    "dump_flat_json",
]


def chrome_trace(
    tracer: Tracer | None = None, metrics: MetricsRegistry | None = None
) -> dict[str, Any]:
    """The tracer's ring as a Trace Event Format document (a dict)."""
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics or get_metrics()
    events = [
        {
            "name": r.name,
            "cat": r.name.split(".", 1)[0],
            "ph": "X",
            "ts": r.ts_us,
            "dur": r.dur_us,
            "pid": r.pid,
            "tid": r.tid,
            "args": {k: _jsonable(v) for k, v in r.args.items()},
        }
        for r in tracer.events()
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        # summary form, not snapshot(): raw distribution windows would
        # bloat the trace file with thousands of samples
        "otherData": {
            "dropped_events": tracer.dropped,
            "counters": metrics.counters(),
            "gauges": metrics.gauges(),
            "distributions": metrics.distributions(),
        },
    }


def dump_chrome_trace(
    path,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> int:
    """Write the chrome-trace JSON to ``path``; returns the event count."""
    doc = chrome_trace(tracer, metrics)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def flat_report(
    tracer: Tracer | None = None, metrics: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Aggregated ``{"spans": ..., "counters": ..., "gauges": ...}``."""
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics or get_metrics()
    spans: dict[str, dict[str, float]] = {}
    for r in tracer.events():
        agg = spans.setdefault(
            r.name, {"count": 0, "total_us": 0.0, "max_us": 0.0}
        )
        agg["count"] += 1
        agg["total_us"] += r.dur_us
        agg["max_us"] = max(agg["max_us"], r.dur_us)
    for agg in spans.values():
        agg["mean_us"] = agg["total_us"] / agg["count"] if agg["count"] else 0.0
    return {
        "spans": spans,
        "counters": metrics.counters(),
        "gauges": metrics.gauges(),
        "distributions": metrics.distributions(),
    }


def dump_flat_json(
    path,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Write the flat report to ``path``; returns the report dict."""
    doc = flat_report(tracer, metrics)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return doc


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)
