"""Pipeline observability: span tracing, metrics, and profiling hooks.

``repro.obs`` is the instrumentation layer the rest of the package talks
to.  It owns one process-wide :class:`~repro.obs.trace.Tracer` and one
:class:`~repro.obs.metrics.MetricsRegistry`, both off by default:

* when **disabled** (the default) every hook is a no-op — ``span()``
  returns a shared null context manager and the metric helpers return
  immediately, so production streams pay nothing and numerics are
  untouched;
* when **enabled** (``obs.enable()``, ``repro.cli demo --trace``, or a
  traced benchmark run, ``perfbench/run.py --trace 1``) the hot paths
  record per-stage wall time, call counts, input shapes, and work
  counters, and ``Rim.process`` / ``StreamingRim`` attach a ``stats``
  dict to their results the same way ``health`` flows today.

Typical profiling session::

    from repro import obs

    obs.enable()
    result = Rim().process(trace)          # result.stats now populated
    print(obs.render_span_table(result.stats["spans"]))
    print(obs.METRICS.render_table())
    obs.disable(); obs.reset()

Since PR 7 the layer also spans process boundaries:

* :mod:`repro.obs.provenance` — per-sample trace contexts stamped at
  create/ingest/dequeue/kernel/emit, resolved into a wire/queue-wait/
  kernel/emit latency breakdown on every ``MotionUpdate``;
* :mod:`repro.obs.export` — JSONL snapshot exporter, Prometheus-style
  text exposition, stdlib HTTP endpoint, and the obs-top table builder;
* :mod:`repro.obs.flight` — an always-on bounded flight recorder
  (``obs.FLIGHT``) dumped to a JSON artifact on protocol errors, guard
  escalations, and graceful shutdown.

Instrumentation is observational only: enabling it must never change a
single output bit (enforced by ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.obs.export import (
    TELEMETRY_SCHEMA,
    MetricsHTTPServer,
    TelemetryExporter,
    parse_exposition,
    render_exposition,
)
from repro.obs.flight import (
    FLIGHT,
    FLIGHT_SCHEMA,
    FlightRecorder,
    validate_flight_dump,
)
from repro.obs.metrics import (
    LATENCY_BOUNDS_S,
    PROMINENCE_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.provenance import (
    PROV_HISTOGRAMS,
    SampleProvenance,
    block_breakdown,
    observe_breakdown,
    validate_breakdown,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    aggregate_spans,
    render_span_table,
)

TRACER = Tracer(enabled=False)
METRICS = MetricsRegistry()


def enabled() -> bool:
    """Is instrumentation currently recording?"""
    return TRACER.enabled


def enable() -> None:
    """Turn span tracing and metric collection on, process-wide."""
    TRACER.enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded data is kept until reset())."""
    TRACER.enabled = False


def reset() -> None:
    """Drop all recorded metrics and abandon every open span."""
    TRACER.reset()
    METRICS.reset()


def span(name: str, **meta: Any):
    """Open a span on the global tracer (no-op singleton when disabled)."""
    return TRACER.span(name, **meta)


def add(name: str, n: float = 1) -> None:
    """Increment a counter — only while instrumentation is enabled."""
    if TRACER.enabled:
        METRICS.counter(name).add(n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge — only while instrumentation is enabled."""
    if TRACER.enabled:
        METRICS.gauge(name).set(value)


def observe(
    name: str, value: float, bounds: Optional[Sequence[float]] = None
) -> None:
    """Record a histogram observation — only while enabled."""
    if TRACER.enabled:
        METRICS.histogram(name, bounds=bounds).observe(value)


def span_stats(root: Span) -> Dict[str, Any]:
    """Package a finished span tree as a result-attachable ``stats`` dict."""
    return {
        "wall_s": root.duration,
        "spans": aggregate_spans(root),
        "meta": dict(root.meta),
    }


__all__ = [
    "FLIGHT",
    "FLIGHT_SCHEMA",
    "LATENCY_BOUNDS_S",
    "METRICS",
    "NULL_SPAN",
    "PROMINENCE_BOUNDS",
    "PROV_HISTOGRAMS",
    "TELEMETRY_SCHEMA",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "SampleProvenance",
    "Span",
    "TRACER",
    "TelemetryExporter",
    "Tracer",
    "add",
    "aggregate_spans",
    "block_breakdown",
    "disable",
    "enable",
    "enabled",
    "observe",
    "observe_breakdown",
    "parse_exposition",
    "render_exposition",
    "render_span_table",
    "reset",
    "set_gauge",
    "span",
    "span_stats",
    "validate_breakdown",
    "validate_flight_dump",
]
