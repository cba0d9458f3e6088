"""Run-table renderer: Markdown, following the repo's ``render_*``
conventions (pure function of the payload, returns a string, no I/O)."""

from __future__ import annotations

from typing import Any, Dict, List


def _fmt_ms(value: Any) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value * 1e3:.1f}"


def _health_summary(health: Dict[str, Any]) -> str:
    parts = [
        f"{key[:4]}={int(health[key])}"
        for key in ("blocked", "shed", "rejected", "degraded_blocks")
        if int(health.get(key, 0))
    ]
    return " ".join(parts) if parts else "clean"


def render_bench_table(payload: Dict[str, Any]) -> str:
    """Markdown run table: one row per cell with spread and latency."""
    lines = [
        f"# bench run table — {payload['name']}",
        "",
        f"- cells: {payload['n_cells']} × {payload['repetitions']} reps"
        f" on {payload['n_cpus']} cpus",
        f"- digest: `{payload['digest']}`",
    ]
    if payload.get("stopped_early"):
        lines.append("- **stopped early** — table covers finished cells only")
    lines += [
        "",
        "| cell | sess/s | spread | samples/s | p50 ms | p95 ms | p99 ms "
        "| updates | health |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---|",
    ]
    for row in payload["rows"]:
        rate = row["sessions_per_second"]
        lines.append(
            f"| `{row['key']}` "
            f"| {rate['mean']:.2f} "
            f"| {rate['spread_frac']:.1%} "
            f"| {row['samples_per_second']['mean']:.0f} "
            f"| {_fmt_ms(row.get('latency_p50_s'))} "
            f"| {_fmt_ms(row.get('latency_p95_s'))} "
            f"| {_fmt_ms(row.get('latency_p99_s'))} "
            f"| {row['n_updates']} "
            f"| {_health_summary(row['health'])} |"
        )
    capacity = payload.get("capacity") or []
    if capacity:
        lines += ["", render_capacity_table(capacity)]
    return "\n".join(lines) + "\n"


def render_capacity_table(models: List[Dict[str, Any]]) -> str:
    """Markdown capacity-model table: one row per fitted group."""
    lines = [
        "## capacity model (sessions/s vs shards)",
        "",
        "| group | slope | intercept | r² |",
        "|---|---:|---:|---:|",
    ]
    for model in models:
        fit = model["fit"]
        lines.append(
            f"| `{model['group']}` "
            f"| {fit['slope']:.3f} "
            f"| {fit['intercept']:.3f} "
            f"| {fit['r2']:.4f} |"
        )
    return "\n".join(lines) + "\n"
