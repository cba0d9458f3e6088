"""Multi-receiver replay: the ``repro.cli serve-sim`` verb.

Builds receivers — N simulated ones walking different lines through the
standard office testbed, or recorded ones read back from trace stores —
and replays them **concurrently** through one
:class:`~repro.serve.session.SessionManager` or a
:class:`~repro.shard.router.ShardRouter` fleet (each receiver driven by a
sender thread, exercising the bounded queues and backpressure policy for
real), and aggregates throughput and health into one table — the
smoke-test story for the serving layer, what CI's concurrency-soak job
runs, and what ``repro.bench`` times.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.arrays.geometry import linear_array
from repro.channel.sampler import CsiTrace
from repro.core.config import RimConfig
from repro.serve.session import ServeConfig, SessionManager
from repro.store.format import MANIFEST_NAME, StoreError
from repro.store.reader import TraceReader

if TYPE_CHECKING:
    from repro.shard.router import ShardRouter


def simulated_receivers(
    n_sessions: int,
    seed: int = 0,
    duration_s: float = 2.0,
    speed: float = 0.5,
) -> List[Tuple[str, CsiTrace]]:
    """Sample N receiver traces walking different lines over the floor.

    Receivers share one testbed (channel, AP, impairment statistics) but
    start from different measurement spots with different headings, so the
    sessions are genuinely independent workloads.
    """
    from repro.eval.setup import MEASUREMENT_SPOTS, make_testbed
    from repro.motionsim.profiles import line_trajectory

    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
    bed = make_testbed(seed=seed)
    array = linear_array(3)
    receivers = []
    for k in range(n_sessions):
        spot = MEASUREMENT_SPOTS[k % len(MEASUREMENT_SPOTS)]
        heading_deg = (360.0 * k) / n_sessions
        truth = line_trajectory(spot, heading_deg, speed, duration_s)
        trace = bed.sampler.sample(truth, array)
        receivers.append((f"rx{k:02d}", trace))
    return receivers


def store_receivers(
    store_dir, policy: str = "repair"
) -> List[Tuple[str, CsiTrace]]:
    """Load recorded receivers from a directory of chunked trace stores.

    Accepts either one store (``store_dir`` itself holds a manifest) or a
    fleet directory whose sub-directories are stores — the layout
    ``SessionManager(record_dir=...)`` records.  Session names are the
    store directory names.

    Args:
        store_dir: Store or fleet directory.
        policy: Store read policy (corrupt chunks NaN-filled by default).
    """
    root = Path(store_dir)
    if (root / MANIFEST_NAME).is_file():
        stores = [root]
    else:
        stores = sorted(
            p for p in root.iterdir()
            if p.is_dir() and (p / MANIFEST_NAME).is_file()
        )
    if not stores:
        raise StoreError(f"{root} holds no trace stores (no {MANIFEST_NAME})")
    receivers = []
    for store in stores:
        with TraceReader(store, policy=policy) as reader:
            receivers.append((store.name, reader.read_trace()))
    return receivers


def _replay(
    target: Union[SessionManager, "ShardRouter"],
    name: str,
    trace: CsiTrace,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    """Push one receiver's packets into its session, then poll its updates."""
    t0 = time.perf_counter()
    n_pushed = 0
    for k in range(trace.n_samples):
        if should_stop is not None and should_stop():
            break
        target.push(name, trace.data[k], float(trace.times[k]))
        n_pushed += 1
    updates = target.poll(name)
    return {
        "session": name,
        "n_samples": n_pushed,
        "n_updates": len(updates),
        "wall_s": time.perf_counter() - t0,
    }


def run_serve_sim(
    receivers: Sequence[Tuple[str, CsiTrace]],
    serve_config: Optional[ServeConfig] = None,
    rim_config: Optional[RimConfig] = None,
    n_workers: int = 4,
    record_dir=None,
    should_stop: Optional[Callable[[], bool]] = None,
    shards: int = 0,
    router: Optional["ShardRouter"] = None,
) -> Dict[str, Any]:
    """Replay receivers concurrently through one manager or a shard fleet.

    With ``shards == 0`` and no ``router``, one in-process
    :class:`SessionManager` serves every session and ``n_workers``
    threads drive them.  Otherwise a
    :class:`~repro.shard.router.ShardRouter` fleet serves them and one
    sender thread per receiver drives it; the timed window starts after
    :meth:`~repro.shard.router.ShardRouter.wait_ready` and session
    creation, so worker startup never pollutes a throughput measurement.
    Either way the window covers pushes, the end-of-stream flush, and
    update delivery.

    Instrumentation follows the caller's :mod:`repro.obs` state: bench
    cells and the CLI telemetry flags enable it; a plain run measures
    with tracing off.

    Args:
        receivers: ``(name, trace)`` pairs, from
            :func:`simulated_receivers` or :func:`store_receivers`.
        serve_config: Queue, backpressure and block cadence of every
            session (defaults to :class:`ServeConfig`'s).
        rim_config: Estimator config override.
        n_workers: Threads driving the sessions of an in-process run.
        record_dir: Record every session's ingest into chunked stores
            under this directory (``record_dir/<session>``).
        should_stop: Polled between packets by every replay thread;
            returning True stops the replays early — queued packets are
            still drained and sessions flushed (graceful shutdown).
        shards: Serve through a fleet of this many worker processes.
        router: Drive an existing fleet instead of spawning one (bench
            cells read the fleet's metrics before closing it); the
            caller keeps ownership and must close it.

    Returns:
        A dict with ``sessions`` (per-session serving stats, updates
        delivered by polls and the final flush, replay wall),
        ``aggregate`` (wall, sessions/sec, samples/sec over the pushed
        packets, shed / reject / degraded totals; ``n_workers`` for an
        in-process run, shard count, liveness, failovers and placement
        for a sharded one), and the run's configuration.
    """
    n_sessions = len(receivers)
    serve_config = serve_config or ServeConfig()
    target: Union[SessionManager, "ShardRouter"]
    own_router = router is None and shards > 0
    if router is not None:
        target = router
    elif shards > 0:
        # Imported here: repro.shard builds on this package.
        from repro.shard import router as shard_router

        target = shard_router.ShardRouter(
            shards,
            rim_config=rim_config,
            serve_config=serve_config,
            record_dir=record_dir,
        )
    else:
        target = SessionManager(
            rim_config=rim_config, serve_config=serve_config, record_dir=record_dir
        )
    try:
        if isinstance(target, SessionManager):
            n_threads = max(1, n_workers)
        else:
            target.wait_ready()
            n_threads = n_sessions
        for name, trace in receivers:
            target.create(name, trace.array, trace.sampling_rate,
                          carrier_wavelength=trace.carrier_wavelength)
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            replays = list(
                pool.map(
                    lambda rx: _replay(target, rx[0], rx[1], should_stop=should_stop),
                    receivers,
                )
            )
        finals = target.flush_all()
        wall = time.perf_counter() - t0

        session_stats = target.stats()
        fleet = None if isinstance(target, SessionManager) else target.fleet_stats()
    finally:
        if own_router:
            target.close()

    by_name = {r["session"]: r for r in replays}
    for row in session_stats:
        name = str(row["session"])
        replay = by_name.get(name, {})
        row["n_updates"] = replay.get("n_updates", 0) + len(finals.get(name, []))
        row["replay_wall_s"] = replay.get("wall_s", 0.0)

    total_samples = sum(r["n_samples"] for r in replays)
    aggregate: Dict[str, Any] = {
        "n_sessions": n_sessions,
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
    config: Dict[str, Any] = {
        "backpressure": serve_config.backpressure,
        "queue_capacity": serve_config.queue_capacity,
        "block_seconds": serve_config.block_seconds,
    }
    if fleet is None:
        aggregate["n_workers"] = n_workers
    else:
        aggregate.update(
            shards=fleet["n_shards"],
            alive_shards=len(fleet["alive"]),
            failovers=fleet["failovers"],
            sessions_per_shard=fleet["sessions_per_shard"],
            start_method=fleet["start_method"],
        )
        config["shards"] = fleet["n_shards"]
    return {"config": config, "sessions": session_stats, "aggregate": aggregate}


def render_serve_table(result: Dict[str, Any]) -> str:
    """Human-readable per-session health + aggregate throughput table.

    A sharded run adds a shard column and a placement line.
    """
    rows = result["sessions"]
    agg = result["aggregate"]
    sharded = "shards" in agg
    shard_col = f" {'shard':<9}" if sharded else ""
    header = (
        f"{'session':<8}{shard_col} {'samples':>8} {'blocks':>7} {'dist m':>8} "
        f"{'queued':>7} {'blocked':>8} {'shed':>6} {'reject':>7} {'degr':>5}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        shard = f" {str(row.get('shard', '?')):<9}" if sharded else ""
        lines.append(
            f"{str(row['session']):<8}{shard} {int(row['processed']):>8} "
            f"{int(row['updates']):>7} {float(row['distance_m']):>8.3f} "
            f"{int(row['queued']):>7} {int(row['blocked']):>8} "
            f"{int(row['shed']):>6} {int(row['rejected']):>7} "
            f"{int(row['degraded_blocks']):>5}"
        )
    if sharded:
        over = (
            f"{agg['shards']} shards ({agg['alive_shards']} alive, "
            f"{agg['failovers']} failovers)"
        )
    else:
        over = f"{agg['n_workers']} workers"
    lines += [
        "-" * len(header),
        f"{agg['n_sessions']} sessions over {over}: "
        f"{agg['wall_s'] * 1e3:.1f} ms wall "
        f"({agg['sessions_per_second']:.2f} sessions/s, "
        f"{agg['samples_per_second']:.0f} samples/s aggregate)",
        f"policy {result['config']['backpressure']!r} "
        f"(capacity {result['config']['queue_capacity']}): "
        f"{agg['blocked']} blocked, {agg['shed']} shed, "
        f"{agg['rejected']} rejected, {agg['degraded_blocks']} degraded blocks",
    ]
    if sharded:
        lines.append(
            "placement: "
            + ", ".join(
                f"{shard}={count}"
                for shard, count in sorted(agg["sessions_per_shard"].items())
            )
        )
    return "\n".join(lines)
