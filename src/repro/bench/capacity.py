"""Capacity-model fitting: least-squares sessions/sec vs shards with
knee detection.

The capacity question the bench answers is "how does sustained
throughput grow as shards are added, and where does it stop growing?".
A single least-squares line answers the first half; for the second we
try every split point of a two-segment piecewise-linear fit and accept
the best one as a *knee* only when the data genuinely bends: enough
points, a visibly imperfect linear fit, a large SSE improvement, and a
flatter post-knee slope.  On perfectly linear data (both SSEs near
zero) the segmented fit would otherwise always "win", so the linear-r²
guard is what keeps healthy scaling reported as ``model="linear"``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.spec import AXES, BenchError

#: Minimum points before a knee can be claimed (2 per segment).
KNEE_MIN_POINTS = 4
#: Linear fits at least this good are reported linear, full stop.
KNEE_LINEAR_R2 = 0.99
#: Segmented SSE must be at most this fraction of the linear SSE.
KNEE_SSE_RATIO = 0.5


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> Dict[str, float]:
    """Ordinary least squares y = slope*x + intercept with r² and SSE.

    Degenerate inputs degrade gracefully rather than raising: a single
    point or zero x-variance yields slope 0 through the mean, and a
    zero total sum of squares (all ys equal) reports r² = 1.0.
    """
    if len(xs) != len(ys) or not xs:
        raise BenchError(
            f"fit_linear needs matched non-empty xs/ys, got {len(xs)}/{len(ys)}"
        )
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0.0:
        slope, intercept = 0.0, ybar
    else:
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
        intercept = ybar - slope * xbar
    sse = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    sst = sum((y - ybar) ** 2 for y in ys)
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    return {"slope": slope, "intercept": intercept, "r2": r2, "sse": sse}


def fit_capacity(
    xs: Sequence[float], ys: Sequence[float]
) -> Dict[str, Any]:
    """Fit the capacity model: linear, or two-segment with a knee.

    Args:
        xs: Resource counts (shards), strictly increasing.
        ys: Sustained sessions/sec at each resource count.

    Returns:
        Dict with ``model`` ("linear"|"kneed"), the pre-knee ``slope``/
        ``intercept``/``r2``, ``knee`` (last x of the first segment, or
        ``None``), ``slope_after`` (post-knee slope, or ``None``), and
        the raw ``points``.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if sorted(set(xs)) != xs:
        raise BenchError(f"capacity xs must be strictly increasing, got {xs}")
    linear = fit_linear(xs, ys)
    result: Dict[str, Any] = {
        "model": "linear",
        "slope": linear["slope"],
        "intercept": linear["intercept"],
        "r2": linear["r2"],
        "knee": None,
        "slope_after": None,
        "points": [[x, y] for x, y in zip(xs, ys)],
    }
    if len(xs) < KNEE_MIN_POINTS or linear["r2"] >= KNEE_LINEAR_R2:
        return result
    best: Optional[Tuple[float, int, Dict[str, float], Dict[str, float]]] = None
    for split in range(2, len(xs) - 1):  # >= 2 points per segment
        left = fit_linear(xs[:split], ys[:split])
        right = fit_linear(xs[split:], ys[split:])
        total_sse = left["sse"] + right["sse"]
        if best is None or total_sse < best[0]:
            best = (total_sse, split, left, right)
    if best is None:
        return result
    total_sse, split, left, right = best
    if (
        total_sse <= KNEE_SSE_RATIO * linear["sse"]
        and right["slope"] < left["slope"]
    ):
        result.update(
            model="kneed",
            slope=left["slope"],
            intercept=left["intercept"],
            r2=left["r2"],
            knee=xs[split - 1],
            slope_after=right["slope"],
        )
    return result


def shard_groups(
    rows: Sequence[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Shard-fleet rows (``shards >= 1``) grouped by every other axis.

    Keys are the non-shard part of the cell key (``sessions=8/kernel=
    batched/...``), in first-seen order; each group's rows are sorted by
    shard count.  The capacity fit and the scaling gate both read these.
    """
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        cell = row["cell"]
        if int(cell["shards"]) < 1:
            continue
        group_key = "/".join(
            f"{axis}={cell[axis]}" for axis in AXES if axis != "shards"
        )
        groups.setdefault(group_key, []).append(row)
    return {
        key: sorted(members, key=lambda row: int(row["cell"]["shards"]))
        for key, members in groups.items()
    }


def capacity_models(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Fit one capacity model per non-shard axis combination.

    Within each :func:`shard_groups` group the rows become the fit's
    (x, y) points with x = shards and y = mean sessions/sec.  Groups
    with fewer than two shard points carry no scaling information and
    are skipped.
    """
    models: List[Dict[str, Any]] = []
    for group_key, members in shard_groups(rows).items():
        if len(members) < 2:
            continue
        xs = [float(row["cell"]["shards"]) for row in members]
        ys = [float(row["sessions_per_second"]["mean"]) for row in members]
        models.append({"group": group_key, "fit": fit_capacity(xs, ys)})
    return models
