#!/usr/bin/env python
"""Shard-scaling floor: 8 sessions through fleets of 1, 2 and 4 shards.

One fixed workload — 8 simulated receivers of 2.0 s each (testbed seed
0), ``RimConfig(max_lag=60)`` and the default ``ServeConfig`` (1 s
blocks, ``block`` policy, 256-packet queues) — replayed once per fleet
width through :func:`repro.serve.simulate.run_serve_sim`.  Its timed
window starts after the workers answer ``wait_ready`` and the sessions
exist, and runs through the final flush, so worker startup is excluded.

Each multi-shard row's efficiency is ``(rate_S / rate_1) / S`` in
sessions/s.  A row the host has the cpus for (shards <= the cpus this
process may run on) must reach ``MIN_LINEAR_EFFICIENCY``; wider rows are
printed and not gated.  The script prints a Markdown table and exits 1
when a gated row falls below the floor.  It takes no arguments::

    PYTHONPATH=src python benchmarks/shard_scaling.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SESSIONS = 8
DURATION_S = 2.0
#: Fleet widths swept; every row scales from the 1-shard rate.
SHARDS = (1, 2, 4)

#: Efficiency ``(rate_S / rate_1) / S`` a gated row must reach (1.0 is
#: perfectly linear).
MIN_LINEAR_EFFICIENCY = 0.7


def usable_cpus() -> int:
    """The cpus this process may run on: an affinity mask (taskset, a
    container cpuset) can make them fewer than the host has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def scaling_gate(
    rates: Dict[int, float], n_cpus: int
) -> List[Tuple[int, float, float, str]]:
    """Gate each fleet width's sessions/s against the 1-shard rate.

    Returns one ``(shards, sessions/s, efficiency, verdict)`` row per
    entry of ``rates``, in shard order.  The verdict is ``"baseline"``
    for the 1-shard row, ``"not gated"`` for a row wider than
    ``n_cpus``, and otherwise ``"ok"`` or ``"FAIL"`` against
    :data:`MIN_LINEAR_EFFICIENCY`.
    """
    base = rates[1]
    rows = []
    for shards, rate in sorted(rates.items()):
        efficiency = rate / base / shards
        if shards == 1:
            verdict = "baseline"
        elif shards > n_cpus:
            verdict = "not gated"
        elif efficiency < MIN_LINEAR_EFFICIENCY:
            verdict = "FAIL"
        else:
            verdict = "ok"
        rows.append((shards, rate, efficiency, verdict))
    return rows


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.core.config import RimConfig
    from repro.serve.simulate import run_serve_sim, simulated_receivers

    receivers = simulated_receivers(SESSIONS, seed=0, duration_s=DURATION_S)
    rim_config = RimConfig(max_lag=60)
    rates = {}
    for shards in SHARDS:
        result = run_serve_sim(receivers, rim_config=rim_config, shards=shards)
        rates[shards] = float(result["aggregate"]["sessions_per_second"])

    n_cpus = usable_cpus()
    rows = scaling_gate(rates, n_cpus)
    print(
        f"{SESSIONS} sessions x {DURATION_S} s on {n_cpus} usable cpus; "
        f"floor {MIN_LINEAR_EFFICIENCY:.2f}x-linear\n"
    )
    print("| shards | sessions/s | efficiency | gate |")
    print("|---|---|---|---|")
    for shards, rate, efficiency, verdict in rows:
        print(f"| {shards} | {rate:.2f} | {efficiency:.2f}x | {verdict} |")
    failed = any(verdict == "FAIL" for *_, verdict in rows)
    print(f"\nshard scaling: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
