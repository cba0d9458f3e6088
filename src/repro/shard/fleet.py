"""Sharded serve simulation: ``serve-sim --shards``.

The single-manager simulator (:mod:`repro.serve.simulate`) replays N
receivers through one in-process :class:`~repro.serve.session.
SessionManager`; this module replays the same receivers through a
:class:`~repro.shard.router.ShardRouter` fleet.  How sessions/sec
scales with shard count is measured by the ``repro.bench`` ``shards``
axis (``benchmarks/matrices/scaling.toml``).

The timed window starts after :meth:`ShardRouter.wait_ready` and session
creation, so worker startup (interpreter spawn, numpy import) never
pollutes a throughput measurement; it covers pushes, the end-of-stream
flush, and update delivery — the full serving round-trip.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.channel.sampler import CsiTrace
from repro.core.config import RimConfig
from repro.serve.session import ServeConfig
from repro.serve.simulate import simulated_receivers, store_receivers
from repro.shard.router import ShardRouter


def _replay_into_router(
    router: ShardRouter,
    name: str,
    trace: CsiTrace,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    """Push one receiver's packets to its shard, then poll its updates."""
    t0 = time.perf_counter()
    n_pushed = 0
    for k in range(trace.n_samples):
        if should_stop is not None and should_stop():
            break
        router.push(name, trace.data[k], float(trace.times[k]))
        n_pushed += 1
    updates = router.poll(name)
    wall = time.perf_counter() - t0
    return {
        "session": name,
        "n_samples": n_pushed,
        "n_updates": len(updates),
        "wall_s": wall,
    }


def run_shard_sim(
    n_sessions: int = 8,
    shards: int = 2,
    seed: int = 0,
    duration_s: float = 2.0,
    backpressure: str = "block",
    queue_capacity: int = 256,
    block_seconds: float = 1.0,
    rim_config: Optional[RimConfig] = None,
    receivers: Optional[Sequence[Tuple[str, CsiTrace]]] = None,
    store_dir=None,
    record_dir=None,
    should_stop: Optional[Callable[[], bool]] = None,
    router: Optional[ShardRouter] = None,
) -> Dict[str, Any]:
    """Replay N receivers concurrently through a shard fleet.

    Mirrors :func:`repro.serve.simulate.run_serve_sim` (same receivers,
    same aggregate schema) with the work fanned across ``shards`` worker
    processes.  Extra aggregate keys: ``shards``, ``failovers``, and the
    per-shard session placement.

    Args:
        router: Drive an existing fleet instead of spawning one (bench
            cells read the fleet's metrics before closing it); the
            caller keeps ownership and must close it.
    """
    if receivers is None:
        if store_dir is not None:
            receivers = store_receivers(store_dir)
        else:
            receivers = simulated_receivers(
                n_sessions, seed=seed, duration_s=duration_s
            )
    n_sessions = len(receivers)
    serve_config = ServeConfig(
        queue_capacity=queue_capacity,
        backpressure=backpressure,
        block_seconds=block_seconds,
    )
    own_router = router is None
    if router is None:
        router = ShardRouter(
            shards,
            rim_config=rim_config,
            serve_config=serve_config,
            record_dir=record_dir,
        )
    try:
        router.wait_ready()
        for name, trace in receivers:
            router.create(
                name,
                trace.array,
                trace.sampling_rate,
                carrier_wavelength=trace.carrier_wavelength,
            )
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_sessions) as pool:
            replays = list(
                pool.map(
                    lambda rx: _replay_into_router(
                        router, rx[0], rx[1], should_stop=should_stop
                    ),
                    receivers,
                )
            )
        finals = router.flush_all()
        wall = time.perf_counter() - t0

        session_stats = router.stats()
        fleet = router.fleet_stats()
    finally:
        if own_router:
            router.close()

    by_name = {r["session"]: r for r in replays}
    for row in session_stats:
        name = str(row["session"])
        replay = by_name.get(name, {})
        row["n_updates"] = replay.get("n_updates", 0) + len(finals.get(name, []))
        row["replay_wall_s"] = replay.get("wall_s", 0.0)

    total_samples = sum(r["n_samples"] for r in replays)
    aggregate = {
        "n_sessions": n_sessions,
        "shards": fleet["n_shards"],
        "alive_shards": len(fleet["alive"]),
        "failovers": fleet["failovers"],
        "sessions_per_shard": fleet["sessions_per_shard"],
        "start_method": fleet["start_method"],
        "wall_s": wall,
        "sessions_per_second": n_sessions / wall if wall > 0 else 0.0,
        "samples_per_second": total_samples / wall if wall > 0 else 0.0,
        "total_samples": total_samples,
        "total_distance_m": float(
            sum(float(row["distance_m"]) for row in session_stats)
        ),
        "shed": sum(int(row["shed"]) for row in session_stats),
        "rejected": sum(int(row["rejected"]) for row in session_stats),
        "blocked": sum(int(row["blocked"]) for row in session_stats),
        "degraded_blocks": sum(
            int(row["degraded_blocks"]) for row in session_stats
        ),
    }
    return {
        "config": {
            "backpressure": backpressure,
            "queue_capacity": queue_capacity,
            "block_seconds": block_seconds,
            "duration_s": duration_s,
            "seed": seed,
            "shards": fleet["n_shards"],
        },
        "sessions": session_stats,
        "aggregate": aggregate,
    }


def render_shard_table(result: Dict[str, Any]) -> str:
    """Per-session table for a sharded run (adds the shard column)."""
    rows = result["sessions"]
    agg = result["aggregate"]
    header = (
        f"{'session':<8} {'shard':<9} {'samples':>8} {'blocks':>7} "
        f"{'dist m':>8} {'blocked':>8} {'shed':>6} {'reject':>7} {'degr':>5}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{str(row['session']):<8} {str(row.get('shard', '?')):<9} "
            f"{int(row['processed']):>8} {int(row['updates']):>7} "
            f"{float(row['distance_m']):>8.3f} {int(row['blocked']):>8} "
            f"{int(row['shed']):>6} {int(row['rejected']):>7} "
            f"{int(row['degraded_blocks']):>5}"
        )
    lines += [
        "-" * len(header),
        f"{agg['n_sessions']} sessions over {agg['shards']} shards "
        f"({agg['alive_shards']} alive, {agg['failovers']} failovers): "
        f"{agg['wall_s'] * 1e3:.1f} ms wall "
        f"({agg['sessions_per_second']:.2f} sessions/s, "
        f"{agg['samples_per_second']:.0f} samples/s aggregate)",
        "placement: "
        + ", ".join(
            f"{shard}={count}"
            for shard, count in sorted(agg["sessions_per_shard"].items())
        ),
    ]
    return "\n".join(lines)

