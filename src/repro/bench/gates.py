"""Gate plumbing for the bench subsystem.

:func:`format_gate_failure` is the single formatter behind every
regression-gate failure string in the repo (``bench compare`` and the
scaling gate) so CI logs read uniformly: which gate, measured vs
baseline, and the budget that was applied.  :func:`gate_linear_scaling`
is the same-host shard-scaling gate ``bench run --scaling-gate``
applies to a fresh run table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.bench.capacity import shard_groups

#: Absolute slack added to latency gates: block latencies are
#: milliseconds-scale, so a purely fractional budget would flap on
#: scheduler jitter alone.
LATENCY_GATE_SLACK_S = 0.25

#: Scaling efficiency ``(rate_S / rate_1) / S`` every shard row the host
#: has the cores to demonstrate must reach (1.0 is perfectly linear).
MIN_LINEAR_EFFICIENCY = 0.7


def format_gate_failure(
    gate: str,
    measured: Any,
    baseline: Any,
    budget: Any,
    note: str = "",
) -> str:
    """Render one gate failure in the repo-wide uniform format.

    Example output::

        [serving.block.sessions_per_second] measured 8.10/s vs
        baseline 12.00/s (budget -20%)
    """
    text = f"[{gate}] measured {measured} vs baseline {baseline} (budget {budget})"
    if note:
        text += f" — {note}"
    return text


def gate_linear_scaling(
    rows: Sequence[Dict[str, Any]], n_cpus: int
) -> Tuple[List[str], List[str]]:
    """Gate shard rows of one run table at ≥ 0.7x-linear sessions/sec.

    Rows are grouped by every axis but ``shards``; each group scales
    from its 1-shard row.  Linear scaling needs as many cores as
    shards, so only rows with ``shards <= n_cpus`` are gated; the
    others, and every row of a group without a 1-shard row, are skipped
    with the reason in the report.

    Returns:
        ``(failures, report)``: failure strings in the uniform gate
        format (empty means pass), and one line per multi-shard row or
        skipped group saying whether it was gated, or why not.
    """
    failures: List[str] = []
    report: List[str] = []
    for group, members in shard_groups(rows).items():
        base = members[0]
        if int(base["cell"]["shards"]) != 1:
            report.append(f"skipped {group}: no 1-shard row to scale from")
            continue
        base_rate = float(base["sessions_per_second"]["mean"])
        for row in members[1:]:
            shards = int(row["cell"]["shards"])
            rate = float(row["sessions_per_second"]["mean"])
            efficiency = rate / base_rate / shards
            if shards > n_cpus:
                report.append(
                    f"skipped {row['key']}: {shards} shards on a "
                    f"{n_cpus}-cpu host ({efficiency:.2f}x-linear recorded, "
                    "not gated)"
                )
                continue
            report.append(f"gated {row['key']}: {efficiency:.2f}x-linear")
            if efficiency < MIN_LINEAR_EFFICIENCY:
                failures.append(
                    format_gate_failure(
                        f"bench[{row['key']}].linear_efficiency",
                        measured=f"{efficiency:.2f}x-linear "
                        f"({rate:.2f} sessions/s)",
                        baseline=f"{base_rate:.2f} sessions/s at 1 shard",
                        budget=f">= {MIN_LINEAR_EFFICIENCY:.2f}x-linear",
                    )
                )
    return failures, report
