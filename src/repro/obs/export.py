"""Telemetry export: JSONL snapshot stream, Prometheus-style exposition,
stdlib HTTP endpoint, and the ``obs-top`` dashboard's table builder.

Three consumers, one registry:

* :class:`TelemetryExporter` — a daemon thread that appends one
  ``metrics`` event per interval to a JSONL file (schema
  :data:`TELEMETRY_SCHEMA`), plus a ``final`` event on stop.  Append-only
  so a crashed run still leaves every snapshot up to the crash.
* :func:`render_exposition` / :func:`parse_exposition` — Prometheus text
  format v0.0.4 (the subset documented in docs/observability.md):
  ``rim_``-prefixed families, session tags as ``{session="..."}``
  labels, histograms as cumulative ``_bucket{le=...}`` + ``_sum`` +
  ``_count``.  The parser doubles as the CI validator.
* :class:`MetricsHTTPServer` — a tiny stdlib HTTP endpoint
  (``/metrics``, ``/metrics.json``, ``/flight.json``, ``/healthz``)
  NetServer and serve-sim can expose during a run.  ``http.server`` (and
  the ``email``, ``http.client`` and ``ssl`` modules it pulls in) loads
  when the first one is built, so importing :mod:`repro` does not pay
  for an endpoint most processes never open.

Everything is stdlib-only and pull-based: nothing here mutates metrics,
so exporters can run concurrently with the hot path (per-metric locks in
:mod:`repro.obs.metrics` keep snapshots torn-free).
"""

from __future__ import annotations

import functools
import json
import math
import re
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import bucket_percentile

TELEMETRY_SCHEMA = "rim-telemetry/v1"

_TAGGED_RE = re.compile(r"^(?P<base>[^{]+)\{(?P<labels>.*)\}$")
_EXPO_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"')


def _default_registry():
    from repro import obs

    return obs.METRICS


def parse_metric_name(name: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"serve.queue_depth{session=rx00}"`` into base + labels."""
    m = _TAGGED_RE.match(name)
    if not m:
        return name, {}
    labels: Dict[str, str] = {}
    for part in m.group("labels").split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        labels[key.strip()] = val.strip().strip('"')
    return m.group("base"), labels


def prom_name(base: str) -> str:
    """Registry name -> exposition family name (``rim_`` + underscores)."""
    return "rim_" + re.sub(r"[^a-zA-Z0-9_]", "_", base)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, _escape_label(str(v)))
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_exposition(metrics: Optional[Dict[str, Dict[str, Any]]] = None) -> str:
    """Render a registry snapshot as Prometheus-style exposition text.

    Args:
        metrics: A :meth:`MetricsRegistry.snapshot` dict; defaults to a
            fresh snapshot of the global registry.
    """
    if metrics is None:
        metrics = _default_registry().snapshot()

    # Group registry entries into exposition families: same base name,
    # possibly many label sets (one per session tag).
    families: Dict[str, Dict[str, Any]] = {}
    for name, snap in sorted(metrics.items()):
        base, labels = parse_metric_name(name)
        family = prom_name(base)
        if snap["type"] == "counter":
            family += "_total"
        entry = families.setdefault(
            family,
            {"type": snap["type"], "help": snap.get("help", ""), "rows": []},
        )
        entry["rows"].append((labels, snap))

    lines: List[str] = []
    type_names = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}
    for family, entry in families.items():
        if entry["help"]:
            lines.append(f"# HELP {family} {entry['help']}")
        lines.append(f"# TYPE {family} {type_names[entry['type']]}")
        for labels, snap in entry["rows"]:
            if entry["type"] in ("counter", "gauge"):
                lines.append(
                    f"{family}{_fmt_labels(labels)} {_fmt_value(snap['value'])}"
                )
            else:
                cumulative = 0
                for bound, n in zip(snap["bounds"], snap["counts"]):
                    cumulative += n
                    ble = dict(labels, le=_fmt_value(bound))
                    lines.append(
                        f"{family}_bucket{_fmt_labels(ble)} {cumulative}"
                    )
                cumulative += snap["counts"][-1]
                binf = dict(labels, le="+Inf")
                lines.append(f"{family}_bucket{_fmt_labels(binf)} {cumulative}")
                lines.append(
                    f"{family}_sum{_fmt_labels(labels)} {_fmt_value(snap['sum'])}"
                )
                lines.append(f"{family}_count{_fmt_labels(labels)} {snap['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse (and validate) exposition text back into families.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``
    and raises ``ValueError`` on malformed lines, samples without a TYPE
    declaration, or histograms whose buckets are not cumulative or whose
    ``+Inf`` bucket disagrees with ``_count``.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
            ):
                raise ValueError(f"line {lineno}: malformed TYPE: {raw!r}")
            families[parts[2]] = {"type": parts[3], "samples": []}
            continue
        if line.startswith("#"):
            continue
        m = _EXPO_LINE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        name = m.group("name")
        labels = {
            lm.group("key"): lm.group("val")
            for lm in _LABEL_RE.finditer(m.group("labels") or "")
        }
        value_text = m.group("value")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {value_text!r}"
            ) from exc
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        families[family]["samples"].append((name, labels, value))

    _validate_histograms(families)
    return families


def _validate_histograms(families: Dict[str, Dict[str, Any]]) -> None:
    for family, entry in families.items():
        if entry["type"] != "histogram":
            continue
        # Partition samples per label set (minus 'le').
        series: Dict[Tuple, Dict[str, Any]] = {}
        for name, labels, value in entry["samples"]:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            rec = series.setdefault(key, {"buckets": [], "sum": None, "count": None})
            if name.endswith("_bucket"):
                rec["buckets"].append((labels.get("le", ""), value))
            elif name.endswith("_sum"):
                rec["sum"] = value
            elif name.endswith("_count"):
                rec["count"] = value
        for key, rec in series.items():
            if rec["count"] is None or rec["sum"] is None or not rec["buckets"]:
                raise ValueError(
                    f"histogram {family}{dict(key)} missing bucket/sum/count"
                )
            values = [v for _, v in rec["buckets"]]
            if any(b > a for a, b in zip(values[1:], values)):
                raise ValueError(
                    f"histogram {family}{dict(key)} buckets not cumulative"
                )
            if rec["buckets"][-1][0] != "+Inf":
                raise ValueError(
                    f"histogram {family}{dict(key)} missing +Inf bucket"
                )
            if values[-1] != rec["count"]:
                raise ValueError(
                    f"histogram {family}{dict(key)} +Inf bucket "
                    f"{values[-1]} != count {rec['count']}"
                )


# -- JSONL snapshot stream ------------------------------------------------


class TelemetryExporter:
    """Daemon thread appending periodic registry snapshots to a JSONL file.

    Args:
        path: Output JSONL file (created/truncated at start).
        interval_s: Seconds between snapshots.
        registry: Defaults to the global ``obs.METRICS``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        interval_s: float = 1.0,
        registry=None,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.path = Path(path)
        self.interval_s = float(interval_s)
        self._registry = registry
        self._seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._mu = threading.Lock()

    @property
    def registry(self):
        return self._registry if self._registry is not None else _default_registry()

    def write_snapshot(self, event: str = "metrics") -> Dict[str, Any]:
        """Append one snapshot event; returns the event dict."""
        record = {
            "schema": TELEMETRY_SCHEMA,
            "event": event,
            "ts": time.time(),
            "metrics": self.registry.snapshot(),
        }
        with self._mu:
            record["seq"] = self._seq
            self._seq += 1
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write_snapshot()

    def start(self) -> "TelemetryExporter":
        if self._thread is not None:
            raise RuntimeError("exporter already started")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("", encoding="utf-8")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-exporter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and append one final snapshot."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.write_snapshot(event="final")

    def __enter__(self) -> "TelemetryExporter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def read_last_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Last ``metrics`` event of a telemetry JSONL file (for obs-top)."""
    last: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "metrics" in record:
                last = record
    if last is None:
        raise ValueError(f"no metrics events found in {path}")
    return last


# -- obs-top table --------------------------------------------------------


def session_rows(metrics: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-session dashboard rows from one registry snapshot.

    Each row: ``{"session", "offered", "queue_depth", "p50_s", "p95_s",
    "repairs"}``.  Throughput needs two snapshots and is filled in by the
    obs-top loop (delta offered / delta time).
    """
    per_session: Dict[str, Dict[str, Any]] = {}

    def row(session: str) -> Dict[str, Any]:
        return per_session.setdefault(
            session,
            {
                "session": session,
                "offered": 0,
                "queue_depth": 0.0,
                "p50_s": math.nan,
                "p95_s": math.nan,
                "repairs": 0,
            },
        )

    for name, snap in metrics.items():
        base, labels = parse_metric_name(name)
        session = labels.get("session")
        if session is None:
            continue
        if base == "serve.offered":
            row(session)["offered"] = snap["value"]
        elif base == "serve.queue_depth":
            row(session)["queue_depth"] = snap["value"]
        elif base == "serve.repairs":
            row(session)["repairs"] = snap["value"]
        elif base == "serve.block_latency_s":
            for key, q in (("p50_s", 0.5), ("p95_s", 0.95)):
                row(session)[key] = bucket_percentile(
                    snap["bounds"], snap["counts"], snap["count"], snap["max"], q
                )
    return [per_session[k] for k in sorted(per_session)]


def render_dashboard(
    rows: List[Dict[str, Any]], title: str = "rim obs-top"
) -> str:
    """Fixed-width per-session table for the obs-top CLI verb."""
    header = (
        f"{'session':<12} {'offered':>9} {'rate/s':>8} {'depth':>6} "
        f"{'p50 ms':>8} {'p95 ms':>8} {'repairs':>8}"
    )
    lines = [title, header, "-" * len(header)]
    if not rows:
        lines.append("(no per-session metrics yet)")
    for r in rows:
        rate = r.get("rate")
        p50, p95 = r.get("p50_s"), r.get("p95_s")
        lines.append(
            f"{r['session']:<12} {r['offered']:>9g} "
            f"{('-' if rate is None else format(rate, '.1f')):>8} "
            f"{r['queue_depth']:>6g} "
            f"{('-' if p50 != p50 else format(p50 * 1e3, '.2f')):>8} "
            f"{('-' if p95 != p95 else format(p95 * 1e3, '.2f')):>8} "
            f"{r['repairs']:>8g}"
        )
    return "\n".join(lines)


# -- HTTP endpoint --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _handler_class():
    """The endpoint's request handler, defined on first use so that
    importing this module does not load ``http.server``."""
    from http.server import BaseHTTPRequestHandler

    class _MetricsHandler(BaseHTTPRequestHandler):
        server_version = "rim-metrics/1"

        def log_message(self, fmt, *args):  # pragma: no cover - silence stderr
            pass

        def _respond(self, body: bytes, content_type: str, status: int = 200) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                registry = self.server.registry  # type: ignore[attr-defined]
                if self.path == "/metrics":
                    body = render_exposition(registry.snapshot()).encode("utf-8")
                    self._respond(body, "text/plain; version=0.0.4; charset=utf-8")
                elif self.path == "/metrics.json":
                    payload = {
                        "schema": TELEMETRY_SCHEMA,
                        "event": "metrics",
                        "ts": time.time(),
                        "metrics": registry.snapshot(),
                    }
                    self._respond(
                        json.dumps(payload, sort_keys=True).encode("utf-8"),
                        "application/json",
                    )
                elif self.path == "/flight.json":
                    from repro import obs

                    payload = obs.FLIGHT.payload("http-request")
                    self._respond(
                        json.dumps(payload, sort_keys=True).encode("utf-8"),
                        "application/json",
                    )
                elif self.path == "/healthz":
                    self._respond(b"ok\n", "text/plain; charset=utf-8")
                else:
                    self._respond(b"not found\n", "text/plain; charset=utf-8", 404)
            except Exception:  # pragma: no cover - endpoint must never crash
                try:
                    self._respond(b"error\n", "text/plain; charset=utf-8", 500)
                except OSError:
                    pass

    return _MetricsHandler


class MetricsHTTPServer:
    """Tiny stdlib HTTP endpoint serving the metrics registry.

    Args:
        host: Bind address (loopback by default).
        port: TCP port; 0 picks an ephemeral one (read back via ``.port``).
        registry: Defaults to the global ``obs.METRICS``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, registry=None):
        from http.server import ThreadingHTTPServer

        self._server = ThreadingHTTPServer((host, port), _handler_class())
        self._server.daemon_threads = True
        self._server.registry = (  # type: ignore[attr-defined]
            registry if registry is not None else _default_registry()
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL (no path): append ``/metrics``, ``/metrics.json``, ..."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsHTTPServer":
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
