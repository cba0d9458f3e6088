"""Turn workload outcomes into the printed table and the result line."""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from . import layers
from .layers import counter, histogram_max, histogram_percentile
from .stats import check_metric_names, percentile
from .workloads import Outcome

# (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("update_latency_p50_s", "s"),
    ("update_latency_p95_s", "s"),
    ("peak_rss_mb", "MB"),
    ("distance_err_cm", "cm"),
    ("heading_err_deg", "deg"),
    ("rotation_err_deg", "deg"),
)

check_metric_names([name for name, _ in END_TO_END])
check_metric_names([name for name, _, _ in layers.LAYER_METRICS])


def layer_metrics(
    workload: str, untraced: Outcome, traced: Outcome, start_method: str
) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric of one traced pass, plus the names missing.

    A metric is missing when the process doing the work could not be
    probed from the benchmark (shard workers without ``fork``); it is
    reported as 0 and named as waiting on in-program tracing.
    """
    from repro.perf import native_available

    snap = traced.snapshot
    raw = traced.layer

    def c(name: str) -> float:
        return counter(snap, name)

    def p(name: str) -> float:
        return c(f"perfbench.{name}")

    out: Dict[str, float] = {}
    out["robustness.guard_busy_s"] = p("robustness.guard_busy_s")
    out["robustness.repairs"] = raw.get("repairs", 0.0)
    out["core.sanitize_busy_s"] = p("core.sanitize_busy_s")
    ingested = raw.get("samples_ingested", 0.0)
    out["core.sanitize_per_sample"] = c("sanitize.samples") / ingested if ingested else 0.0
    out["core.movement_busy_s"] = p("core.movement_busy_s")
    out["core.rotation_busy_s"] = p("core.rotation_busy_s")
    out["core.integrate_busy_s"] = p("core.integrate_busy_s")
    if traced.block_samples:
        out["core.block_busy_s_p50"] = percentile(traced.block_samples, 50)
        out["core.block_busy_s_p95"] = percentile(traced.block_samples, 95)
    else:
        for name, q in (("core.block_busy_s_p50", 0.5), ("core.block_busy_s_p95", 0.95)):
            out[name] = histogram_percentile(snap, layers.BLOCK_HISTOGRAM, q) or 0.0
    out["core.blocks"] = c("stream.blocks")
    out["perf.alignment_busy_s"] = p("perf.alignment_busy_s")
    cells, seeded = c("alignment.cells"), c("stream.cache_seeded_cells")
    out["perf.alignment_cells"] = cells
    out["perf.alignment_cells_seeded"] = seeded
    out["perf.stream_reuse_frac"] = seeded / (seeded + cells) if seeded + cells else 0.0
    out["perf.dp_busy_s"] = p("perf.dp_busy_s")
    out["perf.dp_cells"] = c("dp.cells")
    out["perf.dp_native"] = 1.0 if native_available() else 0.0
    out["serve.queue_wait_s_p50"] = histogram_percentile(snap, "prov.queue_wait_s", 0.5) or 0.0
    out["serve.queue_wait_s_p95"] = histogram_percentile(snap, "prov.queue_wait_s", 0.95) or 0.0
    out["serve.queue_depth_max"] = histogram_max(snap, layers.DEPTH_HISTOGRAM)
    out["serve.block_wait_s"] = raw.get("block_wait_s", 0.0)
    out["serve.shed"] = raw.get("shed", 0.0)
    out["serve.rejected"] = raw.get("rejected", 0.0)
    out["shard.push_busy_s"] = p("shard.push_busy_s")
    out["shard.bytes_sent"] = p("shard.bytes_sent")
    out["shard.load_skew"] = raw.get("load_skew", 0.0)
    for name in (
        "shard.poll_rtt_s_p50", "shard.poll_rtt_s_p95",
        "net.send_busy_s", "net.frames_sent", "net.useful_frac", "net.reconnects",
        "net.recovery_s_max", "net.crc_dropped", "store.read_busy_s",
        "generator.lag_p95_s",
    ):
        out[name] = raw.get(name, 0.0)
    out["store.bytes_written"] = c("store.bytes_written")
    out["store.chunks_written"] = c("store.chunks_written")
    out["store.bytes_read"] = c("store.bytes_read")
    out["obs.tracing_overhead_frac"] = (
        traced.cost / untraced.cost - 1.0 if untraced.cost > 0 else 0.0
    )
    missing: List[str] = []
    if workload == "live_fleet" and start_method != "fork":
        missing = list(layers.WORKER_SIDE_METRICS)
        for name in missing:
            out[name] = 0.0
    return {name: out[name] for name, _, _ in layers.LAYER_METRICS}, missing


def render(
    workload: str,
    seed: int,
    seconds: float,
    host: Dict[str, object],
    outcomes: List[Outcome],
    metrics: Dict[str, float],
    units: Dict[str, str],
    missing: List[str],
) -> List[str]:
    """The human-readable report printed above the result line."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds:g}",
        "host " + json.dumps(host, sort_keys=True),
    ]
    for outcome in outcomes:
        lines += [f"  {note}" for note in outcome.notes]
    width = max(len(name) for name in metrics) if metrics else 10
    sources = {name: source for name, _, source in layers.LAYER_METRICS}
    for name, value in metrics.items():
        source = sources.get(name, "")
        if name.startswith("core.block_busy_s") and workload == "live_fleet":
            source = "obs histogram of worker proxies"
        label = f"  [{source}]" if source else ""
        if "histogram" in source:
            label += " (bucket-resolution)"
        if name == "rotation_err_deg" and workload != "batch_office":
            label = "  (Rim.process on the rotation traces; updates carry no rotation)"
        lines.append(f"{name:<{width}}  {value:.6g} {units[name]}{label}")
    lines.append(
        f"{'failed_frac':<{width}}  {failed / attempted if attempted else 0.0:.6g} ratio"
        f"  ({failed} of {attempted} operations)"
    )
    for outcome in outcomes:
        lines += [f"FAILED: {why}" for why in outcome.failures]
    if missing:
        lines.append(
            "waiting on in-program tracing (reported as 0): " + ", ".join(missing)
        )
    return lines


def result_line(outcomes: List[Outcome], metrics: Dict[str, float], units: Dict[str, str]) -> str:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    })
