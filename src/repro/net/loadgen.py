"""Network load generation: replay recorded traces over the socket.

:func:`run_net_load` turns ``serve-sim`` into an end-to-end network
benchmark: receiver traces (simulated, or read back from ``repro.store``
recordings) are streamed through a :class:`~repro.net.client.NetClient`
into a live :class:`~repro.net.server.NetServer`, optionally through a
:class:`~repro.net.faults.NetFaultPlan`, and the resulting
``MotionUpdate`` stream is compared bit-for-bit against an in-process
baseline.

The baseline is exact, not statistical: fault decisions are pure
functions of ``(seed, seq)``, so the set of samples that can ever reach
the server — :meth:`NetFaultPlan.delivered_seqs` — is known up front.
Feeding exactly those samples, in seq order, through an identically
configured in-process session must produce the identical motion stream;
any divergence is a transport-layer bug, not noise.  (Health reports are
excluded from the comparison — the networked run legitimately carries
extra ``net_*`` repair entries.)
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.channel.sampler import CsiTrace
from repro.core.config import RimConfig
from repro.core.streaming import MotionUpdate
from repro.net.client import NetClient, NetClientConfig
from repro.net.faults import NetFaultPlan
from repro.net.server import NetServer, NetServerConfig
from repro.serve.session import ServeConfig, SessionManager


def updates_equal(
    a: Sequence[MotionUpdate], b: Sequence[MotionUpdate]
) -> bool:
    """True when two update streams carry identical motion content.

    Compares times/speed/heading/moving arrays bitwise (NaN == NaN) and
    the distance scalars exactly; health and stats are intentionally not
    compared (the networked stream adds ``net_*`` repairs).
    """
    if len(a) != len(b):
        return False
    for ua, ub in zip(a, b):
        if ua.times.shape != ub.times.shape:
            return False
        for fa, fb in (
            (ua.times, ub.times),
            (ua.speed, ub.speed),
            (ua.heading, ub.heading),
        ):
            if not np.array_equal(
                np.asarray(fa, dtype=np.float64),
                np.asarray(fb, dtype=np.float64),
                equal_nan=True,
            ):
                return False
        if not np.array_equal(
            np.asarray(ua.moving, dtype=bool), np.asarray(ub.moving, dtype=bool)
        ):
            return False
        if float(ua.block_distance) != float(ub.block_distance):
            return False
        if float(ua.total_distance) != float(ub.total_distance):
            return False
    return True


def baseline_updates(
    name: str,
    trace: CsiTrace,
    fault_plan: Optional[NetFaultPlan] = None,
    rim_config: Optional[RimConfig] = None,
    serve_config: Optional[ServeConfig] = None,
) -> List[MotionUpdate]:
    """The in-process reference: push exactly the deliverable samples.

    With a fault plan, only :meth:`NetFaultPlan.delivered_seqs` survive
    (drops and corruption are terminal; duplicates and reordering are
    repaired by the server); without one, every sample is pushed.

    The replay is not served traffic, so it runs with :mod:`repro.obs`
    off: a served session of the same name keeps its telemetry to
    itself, and the previous obs state is restored afterwards.
    """
    n = trace.n_samples
    delivered = (
        fault_plan.delivered_seqs(n) if fault_plan is not None else range(n)
    )
    was_enabled = obs.enabled()
    obs.disable()
    try:
        manager = SessionManager(rim_config=rim_config, serve_config=serve_config)
        manager.create(
            name,
            trace.array,
            trace.sampling_rate,
            carrier_wavelength=trace.carrier_wavelength,
        )
        for seq in range(n):
            if seq in delivered:
                manager.push(name, trace.data[seq], float(trace.times[seq]))
        return manager.poll(name) + manager.evict(name)
    finally:
        if was_enabled:
            obs.enable()


def run_net_load(
    receivers: Sequence[Tuple[str, CsiTrace]],
    fault_plan: Optional[NetFaultPlan] = None,
    rim_config: Optional[RimConfig] = None,
    serve_config: Optional[ServeConfig] = None,
    net_config: Optional[NetServerConfig] = None,
    client_config: Optional[NetClientConfig] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    check_baseline: bool = True,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    """Stream receiver traces through the network front-end.

    Args:
        receivers: ``(name, trace)`` pairs (from
            :func:`repro.serve.simulate.simulated_receivers` or
            :func:`~repro.serve.simulate.store_receivers`).
        fault_plan: Wire faults injected by each client; ``None`` = clean.
        rim_config, serve_config: Estimator / serving configuration
            (shared by the server and the baseline).
        net_config: Server transport config (ignored with ``host``).
        client_config: Client retry/backoff config.
        host, port: Send to an already-running server instead of an
            in-process loopback one (baseline checking then requires the
            remote server to share the estimator configuration).
        check_baseline: Compare each session's update stream against the
            in-process reference (:func:`updates_equal`).
        should_stop: Polled between samples; returning True ends each
            stream early but cleanly (BYE, estimator flush, final
            updates).  A stopped run skips the baseline comparison.

    Returns:
        A result dict: per-session transport/serving rows, an
        ``aggregate`` block (wall seconds, net ingest samples/s,
        reconnects, worst recovery time), per-client fault counters, and
        ``baseline_match`` (``None`` when unchecked).
    """
    own_server: Optional[NetServer] = None
    if host is None:
        own_server = NetServer(
            config=net_config or NetServerConfig(port=0),
            rim_config=rim_config,
            serve_config=serve_config,
        ).start()
        host = own_server.config.host
        port = own_server.port
    if port is None:
        raise ValueError("port is required when host is given")

    session_updates: Dict[str, List[MotionUpdate]] = {}
    fault_counters: Dict[str, Dict[str, int]] = {}
    n_sent = 0
    n_samples = 0
    n_reconnects = 0
    recovery_times: List[float] = []
    stopped = False
    t0 = time.perf_counter()
    try:
        for name, trace in receivers:
            if stopped:
                break
            client = NetClient(
                host,
                port,
                name,
                trace.array,
                trace.sampling_rate,
                sample_shape=tuple(trace.data.shape[1:]),
                carrier_wavelength=trace.carrier_wavelength,
                config=client_config,
                fault_plan=fault_plan,
            )
            client.connect()
            try:
                for k in range(trace.n_samples):
                    if should_stop is not None and should_stop():
                        stopped = True
                        break
                    client.send(float(trace.times[k]), trace.data[k])
                # Even a stopped stream says BYE: the session drains,
                # the estimator flushes, and the final updates arrive.
                session_updates[name] = client.finish()
            finally:
                client.close()
            n_samples += trace.n_samples
            n_sent += client.n_sent_frames
            n_reconnects += client.n_reconnects
            recovery_times.extend(client.recovery_times_s)
            fault_counters[name] = client.injector.counters()
        wall = time.perf_counter() - t0
        rows = (
            own_server.session_stats() if own_server is not None else []
        )
    finally:
        if own_server is not None:
            own_server.close()

    delivered = sum(int(r.get("processed", 0)) for r in rows)
    baseline_match: Optional[bool] = None
    if check_baseline and not stopped:
        baseline_match = all(
            updates_equal(
                session_updates[name],
                baseline_updates(
                    name,
                    trace,
                    fault_plan=fault_plan,
                    rim_config=rim_config,
                    serve_config=serve_config,
                ),
            )
            for name, trace in receivers
        )

    return {
        "sessions": rows,
        "updates": session_updates,
        "faults": fault_counters,
        "fault_plan": None if fault_plan is None else str(fault_plan),
        "baseline_match": baseline_match,
        "stopped_early": stopped,
        "aggregate": {
            "n_sessions": len(receivers),
            "n_samples": n_samples,
            "n_frames_sent": n_sent,
            "n_delivered": delivered,
            "wall_s": wall,
            "samples_per_second": (n_samples / wall) if wall > 0 else 0.0,
            "reconnects": n_reconnects,
            "recovery_s_max": max(recovery_times) if recovery_times else 0.0,
            "recovery_s_mean": (
                float(np.mean(recovery_times)) if recovery_times else 0.0
            ),
        },
    }


def render_net_table(result: Dict[str, Any]) -> str:
    """Human-readable transport + serving health table for one load run."""
    rows = result["sessions"]
    agg = result["aggregate"]
    header = (
        f"{'session':<8} {'sent':>7} {'deliv':>7} {'acked':>7} {'dups':>6} "
        f"{'gaps':>6} {'crc':>5} {'reconn':>7} {'blocks':>7} {'dist m':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{str(row['session']):<8} {int(row['offered']):>7} "
            f"{int(row['processed']):>7} {int(row.get('acked', -1)):>7} "
            f"{int(row.get('net_dups', 0)):>6} {int(row.get('net_gaps', 0)):>6} "
            f"{int(row.get('net_crc', 0)):>5} {int(row.get('reconnects', 0)):>7} "
            f"{int(row['updates']):>7} {float(row['distance_m']):>8.3f}"
        )
    match = result.get("baseline_match")
    verdict = (
        "unchecked" if match is None else ("bit-identical" if match else "DIVERGED")
    )
    summary = (
        f"{agg['n_sessions']} sessions: {agg['n_samples']} samples in "
        f"{agg['wall_s'] * 1e3:.1f} ms wall "
        f"({agg['samples_per_second']:.0f} samples/s), "
        f"{agg['reconnects']} reconnects"
    )
    # Recovery is timed by clients; a server's table has none to show.
    if "recovery_s_max" in agg:
        summary += f" (worst recovery {agg['recovery_s_max'] * 1e3:.1f} ms)"
    lines += ["-" * len(header), summary, f"baseline: {verdict}"]
    return "\n".join(lines)
