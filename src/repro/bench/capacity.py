"""Capacity-model fitting: least-squares sessions/sec vs shards.

The capacity question the bench answers is "how does sustained
throughput grow as shards are added?".  One least-squares line per
group of rows that differs only in shard count answers it; ``bench
compare`` gates the fitted slope.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.bench.spec import AXES, BenchError


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> Dict[str, float]:
    """Ordinary least squares y = slope*x + intercept with r².

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
    return {"slope": slope, "intercept": intercept, "r2": r2}


def shard_groups(
    rows: Sequence[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Shard-fleet rows (``shards >= 1``) grouped by every other axis.

    Keys are the non-shard part of the cell key
    (``sessions=8/kernel=batched``), in first-seen order; each group's
    rows are sorted by shard count.  The capacity fit and the scaling
    gate both read these.
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
    """Fit one capacity line per non-shard axis combination.

    Within each :func:`shard_groups` group the rows become the fit's
    (x, y) points with x = shards and y = mean sessions/sec; the fit is
    :func:`fit_linear`'s line plus those ``points``.  Groups with fewer
    than two shard points carry no scaling information and are skipped.
    """
    models: List[Dict[str, Any]] = []
    for group_key, members in shard_groups(rows).items():
        if len(members) < 2:
            continue
        xs = [float(row["cell"]["shards"]) for row in members]
        ys = [float(row["sessions_per_second"]["mean"]) for row in members]
        points = [[x, y] for x, y in zip(xs, ys)]
        models.append(
            {"group": group_key, "fit": {**fit_linear(xs, ys), "points": points}}
        )
    return models
