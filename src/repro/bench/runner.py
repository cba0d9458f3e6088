"""Experiment-matrix executor: expand, run, aggregate.

:func:`run_matrix` expands a :class:`~repro.bench.spec.MatrixSpec` into
cells, runs each cell's repetitions through
:func:`repro.serve.simulate.run_serve_sim`, and folds the repetitions
into one run table with a fitted capacity model.  A ``shards == 0``
cell is one in-process :class:`SessionManager`; any other cell drives a
pre-created :class:`~repro.shard.router.ShardRouter`, pre-created so
the fleet's delta-folded latency metrics can be snapshotted while the
router is still alive.

Workloads are sampled once per session count from ``spec.seed``, so
every cell sweeping the same session count replays the identical
receivers — kernels and shard counts compare on identical inputs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.bench.aggregate import (
    TABLE_SCHEMA,
    build_row,
    table_digest,
)
from repro.bench.capacity import capacity_models
from repro.bench.spec import BenchError, Cell, MatrixSpec, expand_matrix

#: Histogram metric holding per-block serving latency (see repro.obs).
LATENCY_METRIC = "stream.block_latency_s"


def _latency_snapshot() -> Optional[Dict[str, Any]]:
    from repro import obs

    snap = obs.METRICS.snapshot().get(LATENCY_METRIC)
    if snap is None or snap.get("type") != "histogram" or not snap.get("count"):
        return None
    return snap


def run_cell(
    spec: MatrixSpec,
    cell: Cell,
    receivers,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    """Run one repetition of one cell and normalize its record.

    Metrics are reset before and snapshotted after the run, so the
    latency histogram covers exactly this repetition.
    """
    from repro import obs
    from repro.core.config import RimConfig
    from repro.serve.session import ServeConfig
    from repro.serve.simulate import run_serve_sim
    from repro.shard.router import ShardRouter

    # max_lag=60 is the lag window `repro.cli demo` runs too, so a traced
    # demo profiles the same kernel work a bench cell times.
    rim_config = RimConfig(max_lag=60, kernel_backend=cell.kernel)
    serve_config = ServeConfig(block_seconds=spec.block_seconds)
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    # A fleet is pre-created and closed here rather than by run_serve_sim:
    # a closed router's metrics collector detaches before we could read
    # the fleet's latency histogram.
    router: Optional[ShardRouter] = None
    try:
        if cell.shards >= 1:
            router = ShardRouter(
                cell.shards, rim_config=rim_config, serve_config=serve_config
            )
        result = run_serve_sim(
            receivers,
            serve_config=serve_config,
            rim_config=rim_config,
            should_stop=should_stop,
            router=router,
        )
        latency = _latency_snapshot()
    finally:
        if router is not None:
            router.close()
        if not was_enabled:
            obs.disable()
    agg = result["aggregate"]
    return {
        "wall_s": float(agg["wall_s"]),
        "n_sessions": int(agg["n_sessions"]),
        "total_samples": int(agg["total_samples"]),
        "sessions_per_second": float(agg["sessions_per_second"]),
        "samples_per_second": float(agg["samples_per_second"]),
        "n_updates": sum(int(row["updates"]) for row in result["sessions"]),
        "total_distance_m": float(agg["total_distance_m"]),
        "health": {
            key: int(agg[key])
            for key in ("blocked", "shed", "rejected", "degraded_blocks")
        },
        "latency": latency,
    }


def run_matrix(
    spec: MatrixSpec,
    should_stop: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the full matrix and return the aggregated run-table payload.

    Args:
        spec: Validated matrix spec.
        should_stop: Polled between repetitions (and inside each run);
            returning True ends the sweep early with the rows finished
            so far.
        progress: Optional callback receiving one line per cell run
            (the CLI prints these).

    Returns:
        Payload dict: ``schema`` (:data:`TABLE_SCHEMA`), ``name``,
        ``spec``, ``n_cpus`` (the cpus this process may run on),
        ``rows``, ``capacity`` (fitted models per non-shard group), and
        the deterministic ``digest``.
    """
    import os

    from repro.serve.simulate import simulated_receivers

    cells = expand_matrix(spec)
    workloads: Dict[int, Any] = {}

    def workload(n_sessions: int):
        if n_sessions not in workloads:
            workloads[n_sessions] = simulated_receivers(
                n_sessions, seed=spec.seed, duration_s=spec.duration_s
            )
        return workloads[n_sessions]

    rows: List[Dict[str, Any]] = []
    stopped = False
    for k, cell in enumerate(cells):
        if should_stop is not None and should_stop():
            stopped = True
            break
        receivers = workload(cell.sessions)
        if progress is not None:
            progress(f"[{k + 1}/{len(cells)}] {cell.key} (reps {spec.repetitions})")
        reps = []
        for _ in range(spec.repetitions):
            if should_stop is not None and should_stop():
                stopped = True
                break
            reps.append(run_cell(spec, cell, receivers, should_stop=should_stop))
        if stopped and len(reps) < spec.repetitions:
            break  # a partially measured cell would skew its spread
        rows.append(build_row(cell, spec.seed, reps))

    if not rows:
        raise BenchError("bench run stopped before any cell completed")
    # The scaling gate needs the cpus this process may use, which an
    # affinity mask (taskset, a container cpuset) can make fewer than
    # the host has.
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        n_cpus = os.cpu_count() or 1
    return {
        "schema": TABLE_SCHEMA,
        "name": spec.name,
        "spec": spec.to_dict(),
        "n_cpus": n_cpus,
        "n_cells": len(rows),
        "repetitions": spec.repetitions,
        "stopped_early": stopped,
        "rows": rows,
        "capacity": capacity_models(rows),
        "digest": table_digest(rows),
    }
