"""Process-wide metrics registry: counters, gauges, and histograms.

Complements :mod:`repro.obs.trace`: spans say where time went, metrics say
how much work was done — samples processed, alignment-matrix cells
computed, DP paths tracked, candidate groups pre-screened vs. confirmed,
TRRS peak-prominence distribution, per-block streaming latency.

Design constraints:

* **Bounded memory.**  Histograms bin into fixed bucket bounds and keep
  running count/sum/min/max — a week-long stream cannot grow the registry.
* **Deterministic.**  No reservoir sampling, no RNG: the same workload
  produces the same snapshot, so BENCH files diff cleanly across PRs.
* **Snapshot-consistent under concurrency.**  Counters and histograms
  carry per-metric locks; a snapshot racing live ``add``/``observe``
  traffic is always internally consistent (histogram bucket counts sum
  to the histogram count).
* **Serializable.**  :meth:`MetricsRegistry.snapshot` is a plain,
  JSON-friendly dict (the ``rim-telemetry/v1`` JSONL stream of
  :mod:`repro.obs.export` writes it), and the registry renders as a
  human-readable table (:meth:`MetricsRegistry.render_table`).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional, Sequence, Union

# Log-spaced latency bounds: 100 us .. ~30 s, 4 buckets per decade.
LATENCY_BOUNDS_S = tuple(10.0 ** (-4 + k / 4.0) for k in range(19))

# Linear TRRS-prominence bounds over the metric's [0, 1] range.
PROMINENCE_BOUNDS = tuple(k / 20.0 for k in range(1, 21))


def bucket_percentile(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    vmax: float,
    q: float,
) -> float:
    """Approximate q-quantile of bucketed observations, q in [0, 1].

    The single bucket walk behind every percentile the program reports:
    a live :meth:`Histogram.percentile` and an exported snapshot
    (obs-top) both call it with the same four fields
    (``bounds``/``counts``/``count``/``max`` in a snapshot).
    The answer is the upper bound of the bucket holding the quantile,
    clamped by the observed max; NaN when nothing was observed.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not count:
        return math.nan
    target = q * count
    running = 0
    for k, n in enumerate(counts):
        running += n
        if running >= target and n:
            if k < len(bounds):
                return min(bounds[k], vmax)
            return vmax
    return vmax


class Counter:
    """A monotonically increasing count of work done.

    ``add`` and ``snapshot`` share a lock so a snapshot taken while other
    threads are incrementing always reflects a value that existed at some
    instant (no torn read-modify-write).
    """

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Union[int, float] = 0
        self._mu = threading.Lock()

    def add(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (add {n})")
        with self._mu:
            self.value += n

    def snapshot(self) -> Dict[str, Any]:
        with self._mu:
            return {"type": self.kind, "value": self.value, "help": self.help}

    def summary(self) -> str:
        return f"{self.value:g}"


class Gauge:
    """A point-in-time value (last one wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value, "help": self.help}

    def summary(self) -> str:
        return f"{self.value:g}"


class Histogram:
    """Fixed-bucket distribution with running stats.

    Args:
        name: Metric name.
        bounds: Ascending bucket upper bounds; observations greater than
            the last bound land in a final overflow bucket.
        help: One-line description.
    """

    kind = "histogram"

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None, help: str = ""
    ):
        bounds = tuple(float(b) for b in (bounds or LATENCY_BOUNDS_S))
        if len(bounds) < 1 or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(f"histogram bounds must be ascending, got {bounds}")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self._mu = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        k = 0
        for k, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            k = len(self.bounds)
        # bucket/count/sum/min/max move together under the lock so a
        # concurrent snapshot never sees sum(counts) != count.
        with self._mu:
            self.counts[k] += 1
            self.count += 1
            self.total += value
            self.vmin = min(self.vmin, value)
            self.vmax = max(self.vmax, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (bucket upper bound), q in [0, 1]."""
        return bucket_percentile(self.bounds, self.counts, self.count, self.vmax, q)

    def snapshot(self) -> Dict[str, Any]:
        with self._mu:
            return {
                "type": self.kind,
                "count": self.count,
                "sum": self.total,
                "min": None if self.count == 0 else self.vmin,
                "max": None if self.count == 0 else self.vmax,
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "help": self.help,
            }

    def summary(self) -> str:
        if not self.count:
            return "n=0"
        return (
            f"n={self.count} mean={self.mean:.4g} p50={self.percentile(0.5):.4g} "
            f"p95={self.percentile(0.95):.4g} max={self.vmax:.4g}"
        )


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for every metric in the process.

    Metric creation is lock-protected so concurrent sessions
    (:mod:`repro.serve`) can mint per-session metrics from worker threads
    without racing get-or-create, and each counter/histogram carries its
    own lock so concurrent updates against an in-flight :meth:`snapshot`
    can never produce a torn record (a histogram whose bucket counts do
    not sum to its count, or a half-applied counter increment).

    **Collectors** let gauge owners refresh on demand: components whose
    state is only visible between pushes (queue depths, retained frame
    buffers) register a callable that is invoked at the top of every
    :meth:`snapshot`, so exports always see live values.  A collector
    returning ``False`` is dropped (used with weakrefs for auto-cleanup);
    a collector that raises is dropped too, never breaking an export.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()
        self._collectors: list = []

    def add_collector(self, fn) -> None:
        """Register ``fn()`` to run before every snapshot (gauge refresh)."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def remove_collector(self, fn) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        dead = []
        for fn in collectors:
            try:
                if fn() is False:
                    dead.append(fn)
            except Exception:
                dead.append(fn)
        for fn in dead:
            self.remove_collector(fn)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, help: str = ""
    ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, bounds=bounds, help=help)
                self._metrics[name] = metric
        if not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _get_or_create(self, cls, name: str, help: str = ""):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help)
                self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def reset(self) -> None:
        """Forget every metric and collector (baseline runs start clean)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as a plain, JSON-friendly dict keyed by name.

        Registered collectors run first so on-demand gauges are fresh.
        """
        self._run_collectors()
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}

    def apply_snapshot(
        self,
        snapshot: Dict[str, Dict[str, Any]],
        previous: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Fold another registry's snapshot into this one, as deltas.

        The shard router aggregates worker-process metrics by pulling
        each worker's :meth:`snapshot` and applying it here against the
        worker's *previous* snapshot: counters and histogram buckets
        advance by their deltas (so repeated applications never
        double-count), gauges are last-value-wins, and histogram
        min/max merge absolutely.  A worker that restarted (its values
        regressed) is treated as fresh — the full new value is applied.

        Args:
            snapshot: The remote registry's :meth:`snapshot` output.
            previous: The last snapshot applied for the same source, or
                None on first application.

        Returns:
            ``snapshot`` itself — store it as the next ``previous``.
        """
        previous = previous or {}
        for name, rec in snapshot.items():
            kind = rec.get("type")
            prev = previous.get(name)
            if prev is not None and prev.get("type") != kind:
                prev = None
            if kind == "counter":
                before = prev["value"] if prev else 0
                delta = rec["value"] - before
                if delta < 0:  # source restarted: count the new value whole
                    delta = rec["value"]
                if delta:
                    self.counter(name, help=rec.get("help", "")).add(delta)
            elif kind == "gauge":
                self.gauge(name, help=rec.get("help", "")).set(rec["value"])
            elif kind == "histogram":
                self._apply_histogram(name, rec, prev)
        return snapshot

    def _apply_histogram(
        self,
        name: str,
        rec: Dict[str, Any],
        prev: Optional[Dict[str, Any]],
    ) -> None:
        hist = self.histogram(name, bounds=rec["bounds"], help=rec.get("help", ""))
        if list(hist.bounds) != [float(b) for b in rec["bounds"]]:
            return  # incompatible layout; never corrupt local buckets
        if prev is not None and (
            list(prev.get("bounds", [])) != list(rec["bounds"])
            or rec["count"] < prev["count"]
        ):
            prev = None  # bounds changed or source restarted: apply whole
        prev_counts = prev["counts"] if prev else [0] * len(rec["counts"])
        d_counts = [int(n) - int(p) for n, p in zip(rec["counts"], prev_counts)]
        d_count = int(rec["count"]) - (int(prev["count"]) if prev else 0)
        d_sum = float(rec["sum"]) - (float(prev["sum"]) if prev else 0.0)
        if d_count <= 0:
            return
        with hist._mu:
            for k, d in enumerate(d_counts):
                if d > 0:
                    hist.counts[k] += d
            hist.count += d_count
            hist.total += d_sum
            if rec.get("min") is not None:
                hist.vmin = min(hist.vmin, float(rec["min"]))
            if rec.get("max") is not None:
                hist.vmax = max(hist.vmax, float(rec["max"]))

    def render_table(self) -> str:
        """Aligned human-readable table of every metric."""
        if not self._metrics:
            return "metrics: (none recorded)"
        rows = [
            (name, metric.kind, metric.summary())
            for name, metric in sorted(self._metrics.items())
        ]
        w_name = max([len(r[0]) for r in rows] + [len("metric")])
        w_kind = max([len(r[1]) for r in rows] + [len("type")])
        lines = [f"{'metric'.ljust(w_name)}  {'type'.ljust(w_kind)}  value"]
        for name, kind, summary in rows:
            lines.append(f"{name.ljust(w_name)}  {kind.ljust(w_kind)}  {summary}")
        return "\n".join(lines)
