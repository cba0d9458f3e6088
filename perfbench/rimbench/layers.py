"""Per-layer attribution for the traced run.

The benchmark times each layer from its own files: :class:`LayerProbes`
wraps the public entry of every pipeline stage and serving hop in a
timing proxy that records busy seconds into ``repro.obs`` counters named
``perfbench.<layer metric>``.  Shard workers are forked from the router
process, so they inherit the proxies, and the router already folds
worker ``repro.obs`` metrics into its own registry; with the ``spawn``
start method the worker-side proxies are absent and those metrics are
reported as missing.

The traced run also switches ``repro.obs`` on, which makes the program
count its own work (alignment cells, DP cells, seeded cells, store
bytes) and fill its latency histograms.  Percentiles taken from those
histograms are bucket-resolution (log-spaced, 4 buckets per decade).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (name, unit, source) of every per-layer metric, in report order.  The
# source says where the number comes from: ``proxy`` (a timing proxy in
# this package), ``obs`` (the program's own repro.obs counters), ``obs
# histogram`` (bucket-resolution), ``bench`` (timed or counted by the
# benchmark's own load loop), or ``stats`` (the program's serving stats rows).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("robustness.guard_busy_s", "s", "proxy"),
    ("robustness.repairs", "count", "health reports"),
    ("core.sanitize_busy_s", "s", "proxy"),
    ("core.sanitize_per_sample", "ratio", "obs"),
    ("core.movement_busy_s", "s", "proxy"),
    ("core.rotation_busy_s", "s", "proxy"),
    ("core.integrate_busy_s", "s", "proxy"),
    ("core.block_busy_s_p50", "s", "proxy"),
    ("core.block_busy_s_p95", "s", "proxy"),
    ("core.blocks", "count", "obs"),
    ("perf.alignment_busy_s", "s", "proxy"),
    ("perf.alignment_cells", "count", "obs"),
    ("perf.alignment_cells_seeded", "count", "obs"),
    ("perf.stream_reuse_frac", "ratio", "obs"),
    ("perf.dp_busy_s", "s", "proxy"),
    ("perf.dp_cells", "count", "obs"),
    ("perf.dp_native", "flag", "bench"),
    ("serve.queue_wait_s_p50", "s", "obs histogram"),
    ("serve.queue_wait_s_p95", "s", "obs histogram"),
    ("serve.queue_depth_max", "count", "proxy"),
    ("serve.block_wait_s", "s", "stats"),
    ("serve.shed", "count", "stats"),
    ("serve.rejected", "count", "stats"),
    ("shard.push_busy_s", "s", "proxy"),
    ("shard.bytes_sent", "bytes", "proxy"),
    ("shard.poll_rtt_s_p50", "s", "bench"),
    ("shard.poll_rtt_s_p95", "s", "bench"),
    ("shard.load_skew", "ratio", "stats"),
    ("net.send_busy_s", "s", "bench"),
    ("net.frames_sent", "count", "bench"),
    ("net.useful_frac", "ratio", "bench"),
    ("net.reconnects", "count", "bench"),
    ("net.recovery_s_max", "s", "bench"),
    ("net.crc_dropped", "count", "stats"),
    ("store.bytes_written", "bytes", "obs"),
    ("store.chunks_written", "count", "obs"),
    ("store.read_busy_s", "s", "bench"),
    ("store.bytes_read", "bytes", "obs"),
    ("obs.tracing_overhead_frac", "ratio", "bench"),
    ("generator.lag_p95_s", "s", "bench"),
)

LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in LAYER_METRICS}

# Proxied entry points: (module path, attribute path, metric).  Busy time
# is inclusive: rotation detection contains the alignment it requests.
_PROXIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.rim", "guard_trace", "robustness.guard_busy_s"),
    ("repro.robustness.guard", "StreamGuard.admit", "robustness.guard_busy_s"),
    ("repro.core.rim", "sanitize_trace", "core.sanitize_busy_s"),
    ("repro.core.streaming", "StreamingRim._sanitize_packet", "core.sanitize_busy_s"),
    ("repro.core.rim", "Rim._detect_movement", "core.movement_busy_s"),
    ("repro.core.rim", "Rim._detect_rotation", "core.rotation_busy_s"),
    ("repro.core.rim", "Rim._reckon", "core.integrate_busy_s"),
    ("repro.perf.kernels", "BatchedBackend.matrices", "perf.alignment_busy_s"),
    ("repro.perf.kernels", "ReferenceBackend.matrices", "perf.alignment_busy_s"),
    ("repro.perf.kernels", "BatchedBackend.track_paths", "perf.dp_busy_s"),
    ("repro.perf.kernels", "KernelBackend.track_paths", "perf.dp_busy_s"),
    ("repro.shard.router", "ShardRouter.push", "shard.push_busy_s"),
)

# Metrics whose proxies must run inside shard workers (inherited by fork).
WORKER_SIDE_METRICS: Tuple[str, ...] = (
    "robustness.guard_busy_s",
    "core.sanitize_busy_s",
    "core.movement_busy_s",
    "core.rotation_busy_s",
    "core.integrate_busy_s",
    "core.block_busy_s_p50",
    "core.block_busy_s_p95",
    "perf.alignment_busy_s",
    "perf.dp_busy_s",
    "serve.queue_depth_max",
)

BLOCK_HISTOGRAM = "perfbench.core.block_busy_s"
DEPTH_HISTOGRAM = "perfbench.serve.queue_depth"
# Queue depths are small integers; these bounds make the merged max exact.
_DEPTH_BOUNDS = tuple(float(2**k) for k in range(12))


def _resolve(module: str, attr: str) -> Tuple[Any, str]:
    import importlib

    owner: Any = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerProbes:
    """Install and remove the timing proxies of the traced run.

    Block durations are also kept raw in :attr:`block_samples` for the
    in-process paths (batch, wire); worker-side blocks only reach the
    router as a bucketed histogram.
    """

    def __init__(self) -> None:
        self.block_samples: List[float] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "LayerProbes":
        from repro import obs

        for module, attr, metric in _PROXIES:
            owner, name = _resolve(module, attr)
            self._wrap(owner, name, _busy_proxy(getattr(owner, name), f"perfbench.{metric}"))

        # Block busy: raw samples here, a histogram for worker processes.
        owner, name = _resolve("repro.core.streaming", "StreamingRim._emit_block")
        original = getattr(owner, name)
        samples = self.block_samples

        def emit_block(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                samples.append(dt)
                obs.observe(BLOCK_HISTOGRAM, dt, bounds=obs.LATENCY_BOUNDS_S)

        self._wrap(owner, name, emit_block)

        # Ingest queue depth after every offer.
        owner, name = _resolve("repro.serve.session", "ServeSession.offer")
        offer = getattr(owner, name)

        def offer_probe(session, *args, **kwargs):
            status = offer(session, *args, **kwargs)
            obs.observe(DEPTH_HISTOGRAM, len(session._queue), bounds=_DEPTH_BOUNDS)
            return status

        self._wrap(owner, name, offer_probe)

        # Bytes the router writes into worker pipes (data-path messages).
        owner, name = _resolve("repro.shard.router", "ShardRouter._send")
        send = getattr(owner, name)

        def send_probe(router, shard, raw):
            obs.add("perfbench.shard.bytes_sent", len(raw))
            return send(router, shard, raw)

        self._wrap(owner, name, send_probe)
        return self

    def _wrap(self, owner: Any, name: str, proxy: Callable) -> None:
        self._undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, proxy)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()


def _busy_proxy(original: Callable, counter: str) -> Callable:
    from repro import obs

    def proxy(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            obs.add(counter, time.perf_counter() - t0)

    return proxy


# -- reading the registry -----------------------------------------------------


def counter(snapshot: Dict[str, Dict[str, Any]], name: str) -> float:
    rec = snapshot.get(name)
    return float(rec["value"]) if rec and rec.get("type") == "counter" else 0.0


def histogram_percentile(
    snapshot: Dict[str, Dict[str, Any]], name: str, q: float
) -> Optional[float]:
    """Bucket-resolution percentile (q in 0..1) of a snapshotted histogram."""
    from repro.obs.metrics import Histogram

    rec = snapshot.get(name)
    if not rec or rec.get("type") != "histogram" or not rec["count"]:
        return None
    hist = Histogram(name, bounds=rec["bounds"])
    hist.counts = list(rec["counts"])
    hist.count = int(rec["count"])
    hist.vmax = float(rec["max"])
    return hist.percentile(q)


def histogram_max(snapshot: Dict[str, Dict[str, Any]], name: str) -> float:
    rec = snapshot.get(name)
    if not rec or rec.get("type") != "histogram" or not rec["count"]:
        return 0.0
    return float(rec["max"])
