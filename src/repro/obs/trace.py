"""Lightweight nestable span tracing for the RIM pipeline.

The paper ships RIM as a real-time system and reports its runtime cost
directly (§6.2.9: ~6% CPU on a Surface Pro).  To reproduce — and then
beat — that trajectory we need to know where wall time goes across the
sanitize → movement-detect → pre-screen → alignment-matrix → DP-tracking
→ integration pipeline.  This module provides the measuring stick:

* :class:`Tracer` — a process-wide span recorder.  ``tracer.span(name)``
  is a context manager; spans opened inside another span nest under it,
  so one ``Rim.process`` call yields a tree of stage timings.
* Each :class:`Span` records wall time (``time.perf_counter``), free-form
  metadata (input shapes, counts), and its children.
* **Zero overhead when disabled**: ``span()`` returns a shared singleton
  no-op context manager — no allocation, no clock reads, no stack
  bookkeeping.  Instrumented code never checks a flag itself.

Spans measure; they never touch data.  Instrumentation must not perturb
numerics — a traced run and an untraced run produce bit-identical
estimates (enforced by ``tests/test_obs.py``).

The tracer is thread-aware: the open-span stack is thread-local (spans
nest within their own thread only), so the serving layer
(:mod:`repro.serve`) can run many traced sessions across a worker pool —
each session's span tree stays intact.  The tracer keeps no finished
span: a tree lives as long as the caller holds the span its ``with``
statement returned (``Rim.process`` sums it into the result's ``stats``
and lets it go), so a long traced run does not grow with every block.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed region of the pipeline.

    Attributes:
        name: Stage label, e.g. ``"rim.pre_screen"`` or ``"dp_tracking"``.
        started: ``time.perf_counter()`` at entry.
        duration: Wall-clock seconds spent inside the span (set at exit).
        meta: Free-form metadata recorded at entry (input shapes, counts).
        children: Spans opened while this one was active.
    """

    name: str
    started: float = 0.0
    duration: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        """Wall time spent in this span excluding its children."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-friendly rendering of the span tree."""
        out: Dict[str, Any] = {"name": self.name, "duration_s": self.duration}
        if self.meta:
            out["meta"] = {k: _jsonable(v) for k, v in self.meta.items()}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Live span context: pushes on enter, times and pops on exit."""

    __slots__ = ("_tracer", "_name", "_meta")

    def __init__(self, tracer: "Tracer", name: str, meta: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._meta = meta

    def __enter__(self) -> Span:
        span = Span(name=self._name, meta=self._meta)
        self._tracer._push(span)
        span.started = time.perf_counter()
        return span

    def __exit__(self, *exc) -> bool:
        # _push stored the span on the tracer stack; close it from there so
        # exit stays correct even if __enter__'s return value was discarded.
        self._tracer._pop(time.perf_counter())
        return False


class _SpanStack(threading.local):
    """Per-thread open-span stack (a fresh list in every thread)."""

    def __init__(self):
        self.stack: List[Span] = []


class Tracer:
    """Process-wide span recorder with an explicit on/off switch.

    Span nesting is tracked per thread: spans opened on a worker thread
    nest under that thread's open spans only, never under another
    thread's.  A top-level span is referenced by nothing here once it
    closes; its tree belongs to whoever holds the span.

    Args:
        enabled: Start enabled (default off — production streams pay
            nothing until someone turns the lights on).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._local = _SpanStack()

    def span(self, name: str, **meta: Any):
        """Open a span context; a no-op singleton when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name, meta)

    @property
    def current(self) -> Optional[Span]:
        """The innermost span open on the calling thread, if any."""
        stack = self._local.stack
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Abandon every open span, on every thread."""
        # Replacing the thread-local drops every thread's open stack;
        # each thread lazily re-creates an empty one on next use.
        self._local = _SpanStack()

    # -- span-context plumbing -------------------------------------------

    def _push(self, span: Span) -> None:
        stack = self._local.stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, now: float) -> None:
        stack = self._local.stack
        if not stack:  # reset() mid-span: nothing left to close
            return
        span = stack.pop()
        span.duration = now - span.started


def aggregate_spans(root: Span) -> List[Dict[str, Any]]:
    """Flatten a span tree into per-name aggregates.

    Groups every span in the subtree (including ``root``) by name and
    reports call counts and wall-time totals — the flat profile a perf
    baseline or a human wants, regardless of nesting depth.

    Returns:
        A list of dicts sorted by descending total time, each with keys
        ``name``, ``calls``, ``total_s``, ``self_s``, ``max_s``, and
        ``meta`` (the metadata of the longest call).
    """
    groups: Dict[str, Dict[str, Any]] = {}
    for span in root.walk():
        agg = groups.setdefault(
            span.name,
            {"name": span.name, "calls": 0, "total_s": 0.0, "self_s": 0.0,
             "max_s": 0.0, "meta": {}},
        )
        agg["calls"] += 1
        agg["total_s"] += span.duration
        agg["self_s"] += span.self_seconds
        if span.duration >= agg["max_s"]:
            agg["max_s"] = span.duration
            agg["meta"] = {k: _jsonable(v) for k, v in span.meta.items()}
    return sorted(groups.values(), key=lambda g: g["total_s"], reverse=True)


def render_span_table(aggregated: List[Dict[str, Any]]) -> str:
    """Human-readable table of aggregated spans (for CLIs and logs)."""
    if not aggregated:
        return "spans: (none recorded)"
    width = max([len(a["name"]) for a in aggregated] + [len("span")])
    lines = [
        f"{'span'.ljust(width)}  {'calls':>6}  {'total':>10}  {'self':>10}  {'max':>10}"
    ]
    for a in aggregated:
        lines.append(
            f"{a['name'].ljust(width)}  {a['calls']:>6d}"
            f"  {_fmt_s(a['total_s']):>10}  {_fmt_s(a['self_s']):>10}"
            f"  {_fmt_s(a['max_s']):>10}"
        )
    return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def _jsonable(value: Any) -> Any:
    """Coerce span metadata to JSON-serializable primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)
