"""Pipeline observability: stage timers, metrics, and profiling hooks.

``repro.obs`` is the instrumentation layer the rest of the package talks
to.  It owns one process-wide :class:`~repro.obs.metrics.MetricsRegistry`
(``obs.METRICS``), off by default:

* when **disabled** (the default) every hook is a no-op — ``span()``
  returns a shared null context manager and the metric helpers return
  immediately, so production streams pay nothing and numerics are
  untouched;
* when **enabled** (``obs.enable()``, ``repro.cli demo --trace``, or a
  traced benchmark run, ``perfbench/run.py --trace 1``) the hot paths
  record work counters, and each ``with obs.span(name):`` block observes
  its wall time into the ``span.<name>`` histogram of ``obs.METRICS``.

Stage timings therefore live where every other metric does: they cross
the shard pipe with the worker's registry snapshot and reach the JSONL
exporter, the exposition endpoint and ``obs-top``.

Typical profiling session::

    from repro import obs

    obs.enable()
    Rim().process(trace)
    print(obs.METRICS.render_table())      # span.rim.* rows carry sum=
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

import time
from typing import Optional, Sequence

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

METRICS = MetricsRegistry()
_enabled = False


def enabled() -> bool:
    """Is instrumentation currently recording?"""
    return _enabled


def enable() -> None:
    """Turn stage timing and metric collection on, process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded data is kept until reset())."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop all recorded metrics."""
    METRICS.reset()


class _NullTimer:
    """Shared no-op context manager returned while instrumentation is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullTimer()


class _Timer:
    """Times one ``with`` block into a latency histogram of ``METRICS``."""

    __slots__ = ("_name", "_started")

    def __init__(self, name: str):
        self._name = name
        self._started = 0.0

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._started
        METRICS.histogram(self._name, bounds=LATENCY_BOUNDS_S).observe(elapsed)
        return False


def span(name: str):
    """Time a ``with`` block into the ``span.<name>`` histogram.

    The recorded time is inclusive: a span opened inside another one is
    counted in both.  While instrumentation is off this returns the
    shared :data:`NULL_SPAN`, which reads no clock and records nothing.
    """
    if not _enabled:
        return NULL_SPAN
    return _Timer("span." + name)


def add(name: str, n: float = 1) -> None:
    """Increment a counter — only while instrumentation is enabled."""
    if _enabled:
        METRICS.counter(name).add(n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge — only while instrumentation is enabled."""
    if _enabled:
        METRICS.gauge(name).set(value)


def observe(
    name: str, value: float, bounds: Optional[Sequence[float]] = None
) -> None:
    """Record a histogram observation — only while enabled."""
    if _enabled:
        METRICS.histogram(name, bounds=bounds).observe(value)


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
    "TelemetryExporter",
    "add",
    "block_breakdown",
    "disable",
    "enable",
    "enabled",
    "observe",
    "observe_breakdown",
    "parse_exposition",
    "render_exposition",
    "reset",
    "set_gauge",
    "span",
    "validate_breakdown",
    "validate_flight_dump",
]
