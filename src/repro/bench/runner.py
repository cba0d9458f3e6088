"""Experiment-matrix executor: expand, run, aggregate.

:func:`run_matrix` expands a :class:`~repro.bench.spec.MatrixSpec` into
cells, runs each cell's warmup + measured repetitions through the
existing serving entry points, and folds the repetitions into one run
table with a fitted capacity model:

* empty ``fault_plan`` → :func:`repro.serve.simulate.run_serve_sim`:
  one in-process :class:`SessionManager` driven by ``spec.workers``
  threads when ``shards == 0``, else a pre-created
  :class:`~repro.shard.router.ShardRouter` — pre-created so the fleet's
  delta-folded latency metrics can be snapshotted while the router is
  still alive;
* non-empty ``fault_plan`` → :func:`repro.net.loadgen.run_net_load`
  over a loopback server with deterministic wire faults.

Workloads are sampled once per session count from ``spec.seed``, so
every cell sweeping the same session count replays the identical
receivers — kernels, dtypes, and shard counts compare on identical
inputs.  The per-cell seed (:func:`~repro.bench.spec.cell_seed`) labels
each row for the digest.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.aggregate import (
    TABLE_SCHEMA,
    build_row,
    table_digest,
)
from repro.bench.capacity import capacity_models
from repro.bench.spec import (
    BenchError,
    Cell,
    MatrixSpec,
    cell_seed,
    expand_matrix,
    match_cell,
)

#: Histogram metric holding per-block serving latency (see repro.obs).
LATENCY_METRIC = "stream.block_latency_s"


def _rim_config(spec: MatrixSpec, cell: Cell):
    from repro.core.config import RimConfig

    # max_lag=60 is the lag window `repro.cli demo` runs too, so a traced
    # demo profiles the same kernel work a bench cell times.
    return RimConfig(
        max_lag=60, kernel_backend=cell.kernel, kernel_dtype=cell.dtype
    )


def _latency_snapshot() -> Optional[Dict[str, Any]]:
    from repro import obs

    snap = obs.METRICS.snapshot().get(LATENCY_METRIC)
    if snap is None or snap.get("type") != "histogram" or not snap.get("count"):
        return None
    return snap


def _run_serve_cell(
    spec: MatrixSpec, cell: Cell, receivers, should_stop
) -> Dict[str, Any]:
    from repro.serve.session import ServeConfig
    from repro.serve.simulate import run_serve_sim
    from repro.shard.router import ShardRouter

    # A fleet is pre-created and closed here rather than by run_serve_sim:
    # a closed router's metrics collector detaches before we could read
    # the fleet's latency histogram.
    router: Optional[ShardRouter] = None
    if cell.shards >= 1:
        router = ShardRouter(
            cell.shards,
            rim_config=_rim_config(spec, cell),
            serve_config=ServeConfig(
                queue_capacity=spec.queue_capacity,
                backpressure=cell.backpressure,
                block_seconds=spec.block_seconds,
            ),
        )
    try:
        result = run_serve_sim(
            receivers=receivers,
            n_workers=spec.workers,
            backpressure=cell.backpressure,
            queue_capacity=spec.queue_capacity,
            block_seconds=spec.block_seconds,
            rim_config=_rim_config(spec, cell),
            should_stop=should_stop,
            router=router,
        )
        result["latency"] = _latency_snapshot()
        return result
    finally:
        if router is not None:
            router.close()


def _run_net_cell(
    spec: MatrixSpec, cell: Cell, receivers, should_stop
) -> Dict[str, Any]:
    from repro.net.faults import NetFaultPlan
    from repro.net.loadgen import run_net_load
    from repro.serve.session import ServeConfig

    plan = NetFaultPlan.from_spec(cell.fault_plan)
    return run_net_load(
        receivers,
        fault_plan=plan,
        rim_config=_rim_config(spec, cell),
        serve_config=ServeConfig(
            queue_capacity=spec.queue_capacity,
            backpressure=cell.backpressure,
            block_seconds=spec.block_seconds,
        ),
        check_baseline=False,  # determinism is asserted across reps instead
        should_stop=should_stop,
    )


def _normalize(cell: Cell, result: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one entry-point result into the uniform repetition record."""
    agg = result["aggregate"]
    sessions = result.get("sessions", [])
    wall = float(agg["wall_s"])
    n_sessions = int(agg["n_sessions"])
    total_samples = int(agg.get("total_samples", agg.get("n_samples", 0)))
    rate = agg.get("sessions_per_second")
    if rate is None:  # the net aggregate reports samples/s only
        rate = n_sessions / wall if wall > 0 else 0.0
    n_updates = sum(int(row.get("updates", 0)) for row in sessions)
    distance = agg.get("total_distance_m")
    if distance is None:
        distance = sum(float(row.get("distance_m", 0.0)) for row in sessions)
    health = {
        key: int(
            agg.get(key, sum(int(row.get(key, 0)) for row in sessions))
        )
        for key in ("blocked", "shed", "rejected", "degraded_blocks", "reconnects")
    }
    return {
        "wall_s": wall,
        "n_sessions": n_sessions,
        "total_samples": total_samples,
        "sessions_per_second": float(rate),
        "samples_per_second": float(agg["samples_per_second"]),
        "n_updates": n_updates,
        "total_distance_m": float(distance),
        "health": health,
        "latency": result.get("latency"),
    }


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

    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        if cell.fault_plan:
            result = _run_net_cell(spec, cell, receivers, should_stop)
        else:
            result = _run_serve_cell(spec, cell, receivers, should_stop)
        if result.get("latency") is None:
            result["latency"] = _latency_snapshot()
    finally:
        if not was_enabled:
            obs.disable()
    return _normalize(cell, result)


def run_matrix(
    spec: MatrixSpec,
    filters: Optional[Sequence[Tuple[str, str]]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the full matrix and return the aggregated run-table payload.

    Args:
        spec: Validated matrix spec.
        filters: ``(key, value)`` pairs from
            :func:`~repro.bench.spec.parse_filters`; only matching cells
            run.
        should_stop: Polled between repetitions (and inside each run);
            returning True ends the sweep early with the rows finished
            so far.
        progress: Optional callback receiving one line per cell run
            (the CLI prints these).

    Returns:
        Payload dict: ``schema`` (:data:`TABLE_SCHEMA`), ``name``,
        ``spec``, ``filters``, ``n_cpus``, ``rows``, ``capacity``
        (fitted models per non-shard group), and the deterministic
        ``digest``.
    """
    import os

    from repro.serve.simulate import simulated_receivers

    cells = expand_matrix(spec)
    filters = list(filters or [])
    if filters:
        cells = [cell for cell in cells if match_cell(cell, filters)]
    if not cells:
        raise BenchError("matrix expands to zero cells after filtering")

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
        seed = cell_seed(spec.seed, cell.key)
        if progress is not None:
            progress(
                f"[{k + 1}/{len(cells)}] {cell.key} "
                f"(warmup {spec.warmup}, reps {spec.repetitions})"
            )
        for _ in range(spec.warmup):
            run_cell(spec, cell, receivers, should_stop=should_stop)
        reps = []
        for r in range(spec.repetitions):
            if should_stop is not None and should_stop():
                stopped = True
                break
            reps.append(run_cell(spec, cell, receivers, should_stop=should_stop))
            if spec.cooldown_s > 0 and r + 1 < spec.repetitions:
                time.sleep(spec.cooldown_s)
        if stopped and len(reps) < spec.repetitions:
            break  # a partially measured cell would skew its spread
        rows.append(build_row(cell, seed, reps))
        if spec.cooldown_s > 0 and k + 1 < len(cells):
            time.sleep(spec.cooldown_s)

    if not rows:
        raise BenchError("bench run stopped before any cell completed")
    return {
        "schema": TABLE_SCHEMA,
        "name": spec.name,
        "spec": spec.to_dict(),
        "filters": [f"{key}={value}" for key, value in filters],
        "n_cpus": os.cpu_count() or 1,
        "n_cells": len(rows),
        "repetitions": spec.repetitions,
        "stopped_early": stopped,
        "rows": rows,
        "capacity": capacity_models(rows),
        "digest": table_digest(rows),
    }
