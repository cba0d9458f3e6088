"""Run-table aggregation: per-cell repetition stats, merged histograms,
the deterministic table digest, and cross-table comparison.

All math here is deliberately dependency-light and deterministic: the
same per-repetition records always produce the same row, and the table
digest covers only replay-deterministic fields (cell identity, seed,
workload size, update counts and total distance), so two runs of the
same spec with the same seed produce bit-identical digests even though
wall-clock columns differ.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.gates import LATENCY_GATE_SLACK_S, format_gate_failure
from repro.bench.spec import Cell, BenchError
from repro.obs.metrics import bucket_percentile

#: Run-table payload schema tag (see :func:`validate_run_table`).
TABLE_SCHEMA = "rim-bench-table/v2"

#: Latency quantiles every row reports, as (field suffix, q) pairs.
LATENCY_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / min / max / sample stdev / fractional spread of repetitions."""
    vals = [float(v) for v in values]
    if not vals:
        raise BenchError("cannot summarize an empty repetition list")
    n = len(vals)
    mean = sum(vals) / n
    if n > 1:
        stdev = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
    else:
        stdev = 0.0
    vmin, vmax = min(vals), max(vals)
    return {
        "mean": mean,
        "min": vmin,
        "max": vmax,
        "stdev": stdev,
        "spread_frac": (vmax - vmin) / mean if mean > 0 else 0.0,
    }


def merge_histograms(
    snapshots: Sequence[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Merge histogram snapshots (same bounds) by summing buckets.

    ``None`` entries (a repetition that recorded no latency) are
    skipped; all-``None`` merges to ``None``.  Mismatched bucket bounds
    are a layout bug, not noise, so they raise.
    """
    live = [s for s in snapshots if s is not None and s.get("count")]
    if not live:
        return None
    bounds = [float(b) for b in live[0]["bounds"]]
    merged = {
        "type": "histogram",
        "bounds": bounds,
        "counts": [0] * len(live[0]["counts"]),
        "count": 0,
        "sum": 0.0,
        "min": None,
        "max": None,
    }
    for snap in live:
        if [float(b) for b in snap["bounds"]] != bounds:
            raise BenchError(
                f"cannot merge histograms with different bounds: "
                f"{snap['bounds']} vs {bounds}"
            )
        merged["counts"] = [
            a + int(b) for a, b in zip(merged["counts"], snap["counts"])
        ]
        merged["count"] += int(snap["count"])
        merged["sum"] += float(snap["sum"])
        for end, pick in (("min", min), ("max", max)):
            if snap.get(end) is not None:
                have = merged[end]
                merged[end] = (
                    float(snap[end]) if have is None else pick(have, float(snap[end]))
                )
    return merged


def build_row(
    cell: Cell, seed: int, reps: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Aggregate one cell's measured repetitions into a run-table row.

    Every cell blocks on a full ingest queue and never sheds, so its
    repetitions must agree on update count and total distance — a
    disagreement means the serving stack broke its replay-determinism
    guarantee, which is a failure worth failing the bench for, not
    averaging away.
    """
    if not reps:
        raise BenchError(f"cell {cell.key} has no measured repetitions")
    first = reps[0]
    for k, rep in enumerate(reps[1:], start=2):
        if rep["n_updates"] != first["n_updates"] or not math.isclose(
            rep["total_distance_m"], first["total_distance_m"],
            rel_tol=0.0, abs_tol=0.0,
        ):
            raise BenchError(
                f"cell {cell.key} repetition {k} diverged: updates "
                f"{rep['n_updates']} vs {first['n_updates']}, distance "
                f"{rep['total_distance_m']!r} vs {first['total_distance_m']!r}"
            )
    latency = merge_histograms([rep.get("latency") for rep in reps])
    row: Dict[str, Any] = {
        "cell": cell.to_dict(),
        "key": cell.key,
        "seed": int(seed),
        "n_sessions": int(first["n_sessions"]),
        "total_samples": int(first["total_samples"]),
        "n_updates": int(first["n_updates"]),
        "total_distance_m": float(first["total_distance_m"]),
        "health": dict(first["health"]),
        "reps": [
            {
                "wall_s": float(rep["wall_s"]),
                "sessions_per_second": float(rep["sessions_per_second"]),
                "samples_per_second": float(rep["samples_per_second"]),
                "n_updates": int(rep["n_updates"]),
                "total_distance_m": float(rep["total_distance_m"]),
                "health": dict(rep["health"]),
            }
            for rep in reps
        ],
        "wall_s": summarize([rep["wall_s"] for rep in reps]),
        "sessions_per_second": summarize(
            [rep["sessions_per_second"] for rep in reps]
        ),
        "samples_per_second": summarize(
            [rep["samples_per_second"] for rep in reps]
        ),
        "latency": latency,
    }
    for suffix, q in LATENCY_QUANTILES:
        # JSON has no NaN: a cell that recorded no latency reports null.
        row[f"latency_{suffix}_s"] = None if latency is None else bucket_percentile(
            latency["bounds"], latency["counts"], latency["count"],
            latency["max"], q,
        )
    return row


def _digest_projection(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    # repr() is the shortest round-trip form: bit-identical floats digest
    # identically, anything else does not.
    return [
        {
            "key": row["key"],
            "seed": int(row["seed"]),
            "n_sessions": int(row["n_sessions"]),
            "total_samples": int(row["total_samples"]),
            "n_updates": int(row["n_updates"]),
            "total_distance_m": repr(float(row["total_distance_m"])),
        }
        for row in rows
    ]


def table_digest(rows: Sequence[Dict[str, Any]]) -> str:
    """SHA-256 over the replay-deterministic projection of the rows."""
    canonical = json.dumps(
        _digest_projection(rows), sort_keys=True, separators=(",", ":")
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def validate_run_table(payload: Dict[str, Any]) -> None:
    """Assert the structural schema of a run-table payload.

    Structure and digest consistency only — never timing values, so CI
    stays hardware-independent.

    Raises:
        BenchError: On schema drift, a malformed row, or a digest that
            does not match the rows it claims to cover.
    """
    if payload.get("schema") != TABLE_SCHEMA:
        raise BenchError(
            f"schema mismatch: want {TABLE_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        raise BenchError("run table has no rows")
    for row in rows:
        for field in ("cell", "key", "seed", "reps", "health"):
            if field not in row:
                raise BenchError(f"row {row.get('key')!r} lacks {field!r}")
        if not isinstance(row["reps"], list) or not row["reps"]:
            raise BenchError(f"row {row['key']!r} has no repetitions")
        for rep in row["reps"]:
            for metric in ("wall_s", "sessions_per_second", "samples_per_second"):
                if not isinstance(rep.get(metric), (int, float)):
                    raise BenchError(f"row {row['key']!r} rep lacks {metric}")
        for metric in ("wall_s", "sessions_per_second", "samples_per_second"):
            stats = row.get(metric)
            if not isinstance(stats, dict) or "mean" not in stats:
                raise BenchError(
                    f"row {row['key']!r} lacks aggregated {metric} stats"
                )
    if payload.get("digest") != table_digest(rows):
        raise BenchError(
            "run-table digest does not match its rows (stale or edited table)"
        )
    capacity = payload.get("capacity")
    if not isinstance(capacity, list):
        raise BenchError("run table lacks the capacity model list")
    for model in capacity:
        fit = model.get("fit")
        if not isinstance(fit, dict) or not isinstance(fit.get("slope"), (int, float)):
            raise BenchError(f"capacity entry {model.get('group')!r} lacks a fit")


def compare_tables(
    old: Dict[str, Any],
    new: Dict[str, Any],
    max_regression: float = 0.25,
) -> List[str]:
    """Cell-by-cell and capacity-model regression check (``bench compare``).

    For every cell key present in both tables, mean sessions/sec may not
    drop by more than the fractional budget, and the merged p95 block
    latency may not grow past the budget plus
    :data:`~repro.bench.gates.LATENCY_GATE_SLACK_S` (block latencies are
    milliseconds-scale; a purely fractional bound would be a
    scheduler-jitter lottery).  A cell present in the old table but
    missing from the new one fails — a silently shrunk matrix is not a
    pass.  The fitted sessions/sec-per-shard slope of every group present
    in both tables gets the same fractional budget, so scaling is gated,
    not just point speed; both slopes must be positive for the ratio to
    mean anything.

    Returns:
        Human-readable failure strings (uniform gate format); empty
        means the comparison passes.
    """
    drop_budget = f"-{max_regression / (1.0 + max_regression):.0%}"
    old_rows = {row["key"]: row for row in old.get("rows", [])}
    new_rows = {row["key"]: row for row in new.get("rows", [])}
    failures: List[str] = []
    for key in old_rows:
        if key not in new_rows:
            failures.append(
                format_gate_failure(
                    f"bench[{key}].present",
                    measured="missing",
                    baseline="present",
                    budget="matrix may not shrink",
                )
            )
    for key, new_row in sorted(new_rows.items()):
        old_row = old_rows.get(key)
        if old_row is None:
            continue
        old_rate = float(old_row["sessions_per_second"]["mean"])
        new_rate = float(new_row["sessions_per_second"]["mean"])
        if old_rate > 0 and new_rate < old_rate / (1.0 + max_regression):
            failures.append(
                format_gate_failure(
                    f"bench[{key}].sessions_per_second",
                    measured=f"{new_rate:.2f}/s ({new_rate / old_rate - 1.0:+.0%})",
                    baseline=f"{old_rate:.2f}/s",
                    budget=drop_budget,
                )
            )
        old_p95 = old_row.get("latency_p95_s")
        new_p95 = new_row.get("latency_p95_s")
        if (
            isinstance(old_p95, (int, float))
            and isinstance(new_p95, (int, float))
            and new_p95 > old_p95 * (1.0 + max_regression) + LATENCY_GATE_SLACK_S
        ):
            failures.append(
                format_gate_failure(
                    f"bench[{key}].latency_p95_s",
                    measured=f"{new_p95 * 1e3:.1f} ms",
                    baseline=f"{old_p95 * 1e3:.1f} ms",
                    budget=f"+{max_regression:.0%} "
                    f"plus {LATENCY_GATE_SLACK_S * 1e3:.0f} ms slack",
                )
            )
    old_slopes = {
        model["group"]: float(model["fit"]["slope"])
        for model in old.get("capacity", [])
    }
    for model in new.get("capacity", []):
        group = model["group"]
        if group not in old_slopes:
            continue
        old_slope = old_slopes[group]
        new_slope = float(model["fit"]["slope"])
        if 0 < new_slope < old_slope / (1.0 + max_regression):
            failures.append(
                format_gate_failure(
                    f"bench[{group}].capacity.slope",
                    measured=f"{new_slope:.2f} sessions/s per shard",
                    baseline=f"{old_slope:.2f} sessions/s per shard",
                    budget=drop_budget,
                )
            )
    return failures
