"""The three workloads: batch_office, live_fleet, and wire_replay.

Each workload function runs one measured pass and returns a
:class:`Outcome`.  End-to-end numbers come from passes with ``repro.obs``
disabled; a traced pass (``traced=True``) switches ``repro.obs`` on and
installs the :mod:`.layers` proxies, and its per-layer numbers are read
back by :func:`layer_metrics`.

Every served output is checked against the in-process oracle
``repro.net.loadgen.baseline_updates`` with ``updates_equal`` (bit-identity
in float64).
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inputs
from .layers import LayerProbes
from .stats import (
    BLAS_THREAD_VARS,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    proc_status_kb,
)

# Set-up repetitions per run, after one unmeasured start that warms the
# page cache (median reported): starting a subprocess is slow, starting
# the fleet or the server in-process is not.
SETUP_REPS_COLD = 5
SETUP_REPS = 11
LIVE_BLOCK_S = 1.0
LIVE_SHARDS = 2
# Short wire blocks: the per-block cost bounds the update rate, and the
# latency percentiles need as many updates as the run can give.
WIRE_BLOCK_S = 0.25
# Samples a wire client may have unacknowledged; above the server's
# 64-sample reorder window, so a dropped frame cannot stall the loop.
WIRE_WINDOW = 128
# CSI loss bursts recorded into the replayed stores, and the wire faults
# applied on top; both plans are fixed, so the delivered CSI is too.
WIRE_LOSS = dict(seed=0, loss_rate=0.01, burst=12)
WIRE_FAULTS = dict(
    drop_fraction=0.005,
    duplicate_fraction=0.01,
    reorder_fraction=0.02,
    corrupt_fraction=0.005,
)


@dataclass
class Outcome:
    """What one measured pass produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    # Per-layer raw material, filled only by a traced pass.
    layer: Dict[str, float] = field(default_factory=dict)
    snapshot: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    block_samples: List[float] = field(default_factory=list)
    # A within-pass cost of the same fixed work, for the tracing overhead.
    cost: float = 0.0

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.failures.append(why)


@dataclass
class Context:
    """Where the run lives and what it was asked to do."""

    root: Path
    cache: inputs.InputCache
    seed: int
    seconds: float
    work_dir: Path

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# -- shared helpers -----------------------------------------------------------


class _Tracing:
    """The traced pass's switches: layer proxies on, ``repro.obs`` on."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.probes: Optional[LayerProbes] = None

    def __enter__(self) -> "_Tracing":
        from repro import obs

        if self.traced:
            self.probes = LayerProbes().install()
            obs.reset()
            obs.enable()
        return self

    @contextmanager
    def paused(self):
        """Keep the benchmark's own input loading out of the counters."""
        from repro import obs

        if self.probes is not None:
            obs.disable()
        try:
            yield
        finally:
            if self.probes is not None:
                obs.enable()

    def collect(self, out: "Outcome") -> None:
        """Snapshot the registry (router collectors pull worker deltas)."""
        from repro import obs

        if self.probes is not None:
            out.snapshot = obs.METRICS.snapshot()
            out.block_samples = list(self.probes.block_samples)

    def __exit__(self, *exc) -> None:
        from repro import obs

        if self.probes is not None:
            obs.disable()
            self.probes.remove()


def _rim_config():
    from repro.core.config import RimConfig

    return RimConfig()


def _serve_config(block_s: float):
    from repro.serve.session import ServeConfig

    return ServeConfig(block_seconds=block_s)


def _circular_mean_deg(headings: Sequence[np.ndarray]) -> float:
    from repro.eval.metrics import circular_mean

    parts = [np.asarray(h, dtype=np.float64) for h in headings]
    return circular_mean(np.concatenate(parts) if parts else np.zeros(0))


def _heading_error(headings: Sequence[np.ndarray], truth_deg: float) -> float:
    from repro.eval.metrics import heading_error_deg

    mean = _circular_mean_deg(headings)
    return 180.0 if not math.isfinite(mean) else heading_error_deg(mean, truth_deg)


def rotation_errors(cache: inputs.InputCache) -> List[float]:
    """|estimated − true| rotation (deg) of the catalog's in-place spins.

    Served updates carry no rotation, so every workload measures rotation
    accuracy by ``Rim.process`` on these traces, outside its timed window.
    """
    from repro.core.rim import Rim

    rim = Rim(_rim_config())
    errors = []
    for spec in inputs.ROTATION_SPECS:
        result = rim.process(cache.trace(spec))
        errors.append(abs(float(np.rad2deg(result.total_rotation)) - spec.angle))
    return errors


def _code_digest(root: Path) -> str:
    """Digest of the program's source, keying derived caches (oracles)."""
    h = hashlib.sha256()
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def oracle_updates(ctx: Context, name: str, trace, key: str, fault_plan, serve_config):
    """``baseline_updates`` for one stream, cached per code and input digest."""
    from repro.net import framing
    from repro.net.loadgen import baseline_updates

    # BLAS threading changes float summation order, so it keys the cache
    # together with the program's source and every configuration involved.
    env = [os.environ.get(var, "") for var in BLAS_THREAD_VARS]
    blob = (
        f"{key}|{fault_plan!r}|{serve_config!r}|{_rim_config()!r}|{env}|{np.__version__}|"
        f"{_code_digest(ctx.root)}"
    )
    path = ctx.cache.root / "oracle" / (hashlib.sha256(blob.encode()).hexdigest()[:20] + ".bin")
    if path.is_file():
        raw = path.read_bytes()
        body, digest = raw[:-32], raw[-32:]
        if hashlib.sha256(body).digest() == digest:
            out, at = [], 0
            while at < len(body):
                size = int.from_bytes(body[at:at + 8], "little")
                out.append(framing.decode_update(body[at + 8:at + 8 + size]))
                at += 8 + size
            return out
    updates = baseline_updates(
        name, trace, fault_plan=fault_plan,
        rim_config=_rim_config(), serve_config=serve_config,
    )
    body = b"".join(
        len(p).to_bytes(8, "little") + p for p in map(framing.encode_update, updates)
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(body + hashlib.sha256(body).digest())
    tmp.replace(path)
    return updates


def _last_index(update, fs: float) -> int:
    return int(round(float(update.times[-1]) * fs))


def _repairs(updates) -> int:
    return sum(
        int(sum(u.health.repairs.values())) for u in updates if u.health is not None
    )


def _setup_subprocess(root: Path) -> float:
    """One cold start: interpreter, ``import repro``, ``Rim()``, native DP load."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from repro import Rim, RimConfig; from repro.perf import native_available;"
        "Rim(RimConfig()); native_available()"
    )
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(root / "src")],
        check=True, cwd=str(root), env=os.environ.copy(),
    )
    return time.perf_counter() - t0


# -- batch_office -------------------------------------------------------------


def batch_office(ctx: Context, traced: bool = False) -> Outcome:
    """Closed loop, one thread: ``Rim.process`` over the office catalog."""
    from repro import obs
    from repro.core.rim import Rim

    out = Outcome()
    traces = ctx.cache.traces(inputs.BATCH_SPECS)
    specs = {spec.name: spec for spec in inputs.BATCH_SPECS}
    order = [str(name) for name in np.random.default_rng(ctx.seed).permutation(list(specs))]

    setups = [_setup_subprocess(ctx.root) for _ in range(SETUP_REPS_COLD + 1)]
    out.metrics["setup_s"] = median(setups[1:])
    rim = Rim(_rim_config())
    rim.process(traces["hex-on0"])  # warm-up: lazy imports, allocator, caches

    first: Dict[str, Any] = {}
    latencies: List[float] = []
    pass_rates: List[float] = []
    pass_walls: List[float] = []
    n_samples = 0
    with _Tracing(traced) as tracing:
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < ctx.seconds or not pass_rates:
            t_pass, pass_samples = time.perf_counter(), 0
            for name in order:
                trace = traces[name]
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = rim.process(trace)
                except Exception as exc:  # a raising trace is a counted failure
                    out.fail(1, f"{name}: raised {exc!r}")
                    continue
                latencies.append(time.perf_counter() - t0)
                pass_samples += trace.n_samples
                if not math.isfinite(result.total_distance):
                    out.fail(1, f"{name}: non-finite distance")
                elif name not in first:
                    first[name] = result
                elif result.total_distance != first[name].total_distance:
                    out.fail(1, f"{name}: distance changed between passes")
            wall = time.perf_counter() - t_pass
            pass_walls.append(wall)
            pass_rates.append(pass_samples / wall)
            n_samples += pass_samples
        tracing.collect(out)

    out.metrics["samples_per_s"] = median(pass_rates)
    out.metrics["update_latency_p50_s"] = percentile(latencies, 50)
    out.metrics["update_latency_p95_s"] = percentile(latencies, 95)
    out.metrics["peak_rss_mb"] = peak_rss_mb([os.getpid()])
    dist = [
        100.0 * abs(first[n].total_distance - traces[n].trajectory.total_distance)
        for n in order if specs[n].translating and n in first
    ]
    out.metrics["distance_err_cm"] = median(dist)
    out.metrics["heading_err_deg"] = float(np.mean([
        _heading_error([first[n].headings()], specs[n].direction)
        for n in order if specs[n].array == "hex" and specs[n].kind == "line" and n in first
    ]))
    rot = [
        abs(float(np.rad2deg(first[n].total_rotation)) - specs[n].angle)
        for n in order if specs[n].kind == "rotation" and n in first
    ]
    out.metrics["rotation_err_deg"] = median(rot)
    out.cost = median(pass_walls)
    out.notes += [
        f"{len(pass_rates)} passes of {len(order)} traces, {n_samples} samples, "
        f"pass rates {', '.join(f'{r:.0f}' for r in pass_rates)} samples/s",
        f"latency samples: {len(latencies)} (one per Rim.process call)",
    ]
    if traced:
        out.layer.update(
            samples_ingested=float(n_samples),
            repairs=float(sum(
                sum(r.health.repairs.values()) for r in first.values() if r.health
            ) * len(pass_rates)),
        )
    return out


# -- live_fleet ---------------------------------------------------------------


def live_fleet(ctx: Context, traced: bool = False) -> Outcome:
    """Open loop at 200 Hz per session into a 2-shard ``ShardRouter``."""
    from repro.net.loadgen import updates_equal
    from repro.shard.router import ShardRouter

    out = Outcome()
    pairs = inputs.live_specs(ctx.seconds)
    geometry = {spec.name: ctx.cache.geometry(ctx.cache.path(spec)) for _, spec in pairs}
    serve_config = _serve_config(LIVE_BLOCK_S)

    router: Optional[ShardRouter] = None
    with _Tracing(traced) as tracing:
        try:
            # The fleet forks before any CSI is loaded, so worker memory
            # is the workers' own.
            setups = []
            for rep in range(SETUP_REPS + 1):
                if router is not None:
                    router.close()
                record_dir = ctx.fresh_dir(f"fleet{rep}")
                t0 = time.perf_counter()
                router = ShardRouter(
                    LIVE_SHARDS, rim_config=_rim_config(), serve_config=serve_config,
                    record_dir=record_dir,
                )
                router.wait_ready()
                for name, spec in pairs:
                    array, fs, wavelength, _ = geometry[spec.name]
                    router.create(name, array, fs, carrier_wavelength=wavelength)
                setups.append(time.perf_counter() - t0)
            out.metrics["setup_s"] = median(setups[1:])
            assert router is not None
            router_kb = proc_status_kb(os.getpid(), "VmRSS")
            with tracing.paused():
                traces = ctx.cache.traces([spec for _, spec in pairs])
            sessions = [(name, spec, traces[spec.name]) for name, spec in pairs]
            got = _drive_live(ctx, router, sessions, out)
            # Everything below reads the fleet before it shuts down.
            workers = [p.pid for p in multiprocessing.active_children()]
            out.metrics["peak_rss_mb"] = router_kb / 1024.0 + peak_rss_mb(workers)
            out.cost = sum(cpu_seconds(pid) for pid in workers)
            tracing.collect(out)
            rows = router.stats()
        finally:
            if router is not None:
                router.close()

    oracles = {
        spec.name: oracle_updates(ctx, spec.name, traces[spec.name], spec.key(), None, serve_config)
        for _, spec in pairs
    }
    rot_err = rotation_errors(ctx.cache)
    for name, spec, trace in sessions:
        out.attempted += 1 + trace.n_samples
        if not updates_equal(got[name], oracles[spec.name]):
            out.fail(1, f"{name}: updates differ from baseline_updates")
        missing = trace.n_samples - sum(int(u.times.size) for u in got[name])
        out.fail(missing, f"{name}: {missing} samples undelivered")

    errors = {
        name: 100.0 * abs(got[name][-1].total_distance - trace.trajectory.total_distance)
        for name, spec, trace in sessions if spec.translating and got[name]
    }
    out.metrics["distance_err_cm"] = median(list(errors.values()))
    out.notes.append(
        "distance error cm: " + ", ".join(f"{k} {v:.2f}" for k, v in errors.items())
    )
    out.metrics["heading_err_deg"] = float(np.mean([
        _heading_error([u.heading for u in got[name]], spec.direction)
        for name, spec, _ in sessions if spec.array == "hex"
    ]))
    out.metrics["rotation_err_deg"] = median(rot_err)
    if traced:
        by_shard: Dict[str, float] = {}
        for row in rows:
            shard = str(row["shard"])
            by_shard[shard] = by_shard.get(shard, 0.0) + float(row["processed"])
        loads = list(by_shard.values())
        out.layer.update(_serving_rows(rows))
        out.layer["repairs"] = float(sum(_repairs(u) for u in got.values()))
        out.layer["load_skew"] = max(loads) / float(np.mean(loads)) if loads else 0.0
    return out


def _serving_rows(rows) -> Dict[str, float]:
    """Per-layer raw material from the program's serving stats rows."""
    return {
        "block_wait_s": sum(float(r["block_wait_s"]) for r in rows),
        "shed": float(sum(int(r["shed"]) for r in rows)),
        "rejected": float(sum(int(r["rejected"]) for r in rows)),
        "samples_ingested": float(sum(int(r["processed"]) for r in rows)),
    }


def _drive_live(ctx: Context, router, sessions, out: Outcome) -> Dict[str, list]:
    """Open-loop load: one sender thread per shard.

    Each thread pushes its shard's sessions' samples at their due times
    and polls a session right after pushing the last sample of one of its
    blocks, so every session is polled once per block period.  The router
    serializes all traffic to a shard under one lock, so a thread per
    shard loses no concurrency to a thread per session and keeps one
    stalled shard from delaying the receivers on the other.  Sessions
    start at evenly staggered phases in a fixed order, so block ends never
    bunch; each packet is due at its 200 Hz slot plus a seeded 0-2 ms
    arrival jitter.  An update's latency runs from the due time of its
    last sample to the return of the poll that delivered it; lag is how
    late each push ran.
    """
    fs = float(sessions[0][2].sampling_rate)
    block = int(round(LIVE_BLOCK_S * fs))
    n = len(sessions)
    rng = np.random.default_rng(ctx.seed)
    t0 = time.perf_counter() + 0.1
    due = [
        t0 + i * LIVE_BLOCK_S / n + np.arange(trace.n_samples) / fs
        + rng.uniform(0.0, 0.002, size=trace.n_samples)
        for i, (_, _, trace) in enumerate(sessions)
    ]
    by_shard: Dict[str, List[int]] = {}
    for i, (name, _, _) in enumerate(sessions):
        by_shard.setdefault(router.shard_of(name), []).append(i)
    got: Dict[str, list] = {name: [] for name, _, _ in sessions}
    latencies: List[float] = []
    rtts: List[float] = []
    lags: List[float] = []
    errors: List[BaseException] = []

    def sender(members: List[int]) -> None:
        schedule = sorted((float(due[i][k]), i, k) for i in members for k in range(len(due[i])))
        try:
            for at, i, k in schedule:
                ahead = at - time.perf_counter()
                if ahead > 0:
                    time.sleep(ahead)
                lags.append(time.perf_counter() - at)
                name, _, trace = sessions[i]
                router.push(name, trace.data[k], float(trace.times[k]))
                if (k + 1) % block:
                    continue
                p0 = time.perf_counter()
                updates = router.poll(name)
                now = time.perf_counter()
                rtts.append(now - p0)
                for update in updates:
                    latencies.append(now - float(due[i][_last_index(update, fs)]))
                got[name].extend(updates)
        except BaseException as exc:  # surfaced on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=sender, args=(members,), name=f"perfbench-{shard}", daemon=True)
        for shard, members in sorted(by_shard.items())
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=ctx.seconds + 120.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("live_fleet sender threads did not finish")
    t_end = time.perf_counter()
    delivered = sum(int(u.times.size) for ups in got.values() for u in ups)
    for name, _, _ in sessions:
        got[name].extend(router.flush(name))

    lat, lag, rtt = latencies, lags, rtts
    late = sum(1 for x in lat if x > LIVE_BLOCK_S)
    out.attempted += len(lat)
    out.fail(late, f"{late} updates later than one block period ({LIVE_BLOCK_S} s)")
    out.metrics["samples_per_s"] = delivered / (t_end - t0)
    out.metrics["update_latency_p50_s"] = percentile(lat, 50)
    out.metrics["update_latency_p95_s"] = percentile(lat, 95)
    out.notes += [
        f"{n} sessions on {LIVE_SHARDS} shards ("
        + ", ".join(f"{shard}: {len(m)}" for shard, m in sorted(by_shard.items()))
        + f"), block {LIVE_BLOCK_S} s, "
        f"offered {n * fs:.0f} samples/s",
        f"latency samples: {len(lat)} updates (polled; final flushes excluded), "
        f"max {max(lat, default=0.0):.3f} s",
        f"generator lag p50/p95: {percentile(lag, 50) * 1e3:.2f}/"
        f"{percentile(lag, 95) * 1e3:.2f} ms over {len(lag)} pushes",
    ]
    out.layer["generator.lag_p95_s"] = percentile(lag, 95)
    out.layer["shard.poll_rtt_s_p50"] = percentile(rtt, 50)
    out.layer["shard.poll_rtt_s_p95"] = percentile(rtt, 95)
    return got


# -- wire_replay --------------------------------------------------------------


def _open_client(server, stream: str, geometry, plan):
    from repro.net.client import NetClient

    array, fs, wavelength, shape = geometry
    client = NetClient(
        server.config.host, server.port, stream, array, fs,
        sample_shape=shape, carrier_wavelength=wavelength, fault_plan=plan,
    )
    client.connect()
    return client


@dataclass
class _WireTally:
    """Benchmark-side counters of the wire passes."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    send_busy: float = 0.0
    read_busy: float = 0.0
    frames: int = 0
    reconnects: int = 0
    recovery: List[float] = field(default_factory=list)
    pass_walls: List[float] = field(default_factory=list)


def _stream_pass(names, clients, traces, tally: _WireTally) -> None:
    """Send every sample of every trace, at most ``WIRE_WINDOW`` unacked.

    One thread drives both connections, one sample at a time in turn.  A
    connection whose window is full is only drained; when both are full
    the thread waits briefly.  ``NetClient`` reads replies only inside
    ``send`` and ``finish``, so draining uses its receive step directly.
    An update's latency runs from the send of its last sample to the
    moment the update is read.
    """
    fs = float(traces[0].sampling_rate)
    nxt = [0] * len(clients)
    seen = [0] * len(clients)
    sent_at = [np.zeros(t.n_samples) for t in traces]
    while any(nxt[c] < traces[c].n_samples for c in range(len(clients))):
        progressed = False
        for c, client in enumerate(clients):
            k, trace = nxt[c], traces[c]
            if k < trace.n_samples and k - client.acked <= WIRE_WINDOW:
                t0 = time.perf_counter()
                sent_at[c][k] = t0
                client.send(float(trace.times[k]), trace.data[k])
                tally.send_busy += time.perf_counter() - t0
                nxt[c] = k + 1
                progressed = True
            else:
                client._drain_incoming()
            now = time.perf_counter()
            lat = tally.latencies.setdefault(names[c], [])
            for update in client.updates[seen[c]:]:
                lat.append(now - sent_at[c][_last_index(update, fs)])
            seen[c] = len(client.updates)
        if not progressed:
            time.sleep(0.0005)


def wire_replay(ctx: Context, traced: bool = False) -> Outcome:
    """Closed loop: two store-replayed sessions through the TCP front-end."""
    from repro.net.faults import NetFaultPlan
    from repro.net.loadgen import updates_equal
    from repro.net.server import NetServer, NetServerConfig
    from repro.store.reader import TraceReader

    out = Outcome()
    pairs = list(inputs.WIRE_SPECS)
    stores = {name: ctx.cache.faulted_store(spec, **WIRE_LOSS) for name, spec in pairs}
    geometry = {name: ctx.cache.geometry(stores[name]) for name, _ in pairs}
    serve_config = _serve_config(WIRE_BLOCK_S)
    # The committed fault plan plus one forced disconnect per stream, at a
    # seeded position.  The disconnect never changes what is delivered, so
    # the oracle is keyed on the plan without it.
    n_trace = int(round(pairs[0][1].duration * 200.0)) + 1
    steady_plan = NetFaultPlan(seed=0, **WIRE_FAULTS)
    at = int(np.random.default_rng(ctx.seed).integers(n_trace // 4, 3 * n_trace // 4))
    plan = replace(steady_plan, disconnect_after=at)

    def connect(n_pass: int) -> List[Any]:
        return [
            _open_client(server, f"{name}-p{n_pass}", geometry[name], plan) for name, _ in pairs
        ]

    server: Optional[NetServer] = None
    clients: List[Any] = []
    got: Dict[str, Tuple[str, list]] = {}
    tally = _WireTally()
    with _Tracing(traced) as tracing:
        try:
            # Set-up: server start plus the first pass's connects.
            setups = []
            for rep in range(SETUP_REPS + 1):
                if server is not None:
                    for client in clients:
                        client.close()
                    server.close(flush_sessions=False)
                t0 = time.perf_counter()
                server = NetServer(
                    config=NetServerConfig(port=0), rim_config=_rim_config(),
                    serve_config=serve_config,
                ).start()
                clients = connect(0)
                setups.append(time.perf_counter() - t0)
            out.metrics["setup_s"] = median(setups[1:])
            assert server is not None

            # Whole passes until the time is up: each re-reads the stores
            # and replays them as fresh sessions.
            t_start = time.perf_counter()
            n_pass = 0
            while n_pass == 0 or time.perf_counter() - t_start < ctx.seconds:
                t_pass = time.perf_counter()
                if n_pass:
                    clients = connect(n_pass)
                r0 = time.perf_counter()
                traces = []
                for name, _ in pairs:
                    with TraceReader(stores[name], policy="repair") as reader:
                        traces.append(reader.read_trace())
                tally.read_busy += time.perf_counter() - r0
                _stream_pass([name for name, _ in pairs], clients, traces, tally)
                for (name, _), client in zip(pairs, clients):
                    try:
                        got[f"{name}-p{n_pass}"] = (name, list(client.finish()))
                    finally:
                        client.close()
                    tally.frames += client.n_sent_frames
                    tally.reconnects += client.n_reconnects
                    tally.recovery.extend(client.recovery_times_s)
                tally.pass_walls.append(time.perf_counter() - t_pass)
                if n_pass == 0:
                    # The server keeps finished sessions until their TTL,
                    # so later passes only add retained state: the peak is
                    # taken while serving the first pass.
                    out.metrics["peak_rss_mb"] = peak_rss_mb([os.getpid()])
                n_pass += 1
            wall = time.perf_counter() - t_start
            rows = server.session_stats()
            tracing.collect(out)
        finally:
            if server is not None:
                server.close()

    traces_by_name = {name: ctx.cache.read(stores[name]) for name, _ in pairs}
    oracles = {
        name: oracle_updates(
            ctx, name, traces_by_name[name], stores[name].name, steady_plan, serve_config
        )
        for name, _ in pairs
    }
    by_row = {str(r["session"]): r for r in rows}
    expected = {
        name: len(steady_plan.delivered_seqs(trace.n_samples))
        for name, trace in traces_by_name.items()
    }
    delivered = 0
    for stream, (name, updates) in got.items():
        out.attempted += 1 + expected[name]
        if not updates_equal(updates, oracles[name]):
            out.fail(1, f"{stream}: updates differ from baseline_updates")
        processed = int(by_row.get(stream, {}).get("processed", 0))
        covered = sum(int(u.times.size) for u in updates)
        delivered += covered
        lost = max(0, expected[name] - processed)
        out.fail(lost, f"{stream}: {lost} samples undelivered")
        out.fail(int(processed != covered), f"{stream}: processed {processed} != covered {covered}")

    first = {name: got[f"{name}-p0"][1] for name, _ in pairs}
    out.metrics["samples_per_s"] = delivered / wall
    latencies = [x for part in tally.latencies.values() for x in part]
    out.metrics["update_latency_p50_s"] = percentile(latencies, 50)
    out.metrics["update_latency_p95_s"] = percentile(latencies, 95)
    out.metrics["distance_err_cm"] = median([
        100.0 * abs(first[name][-1].total_distance
                    - traces_by_name[name].trajectory.total_distance)
        for name, spec in pairs if spec.translating
    ])
    out.metrics["heading_err_deg"] = float(np.mean([
        _heading_error([u.heading for u in first[name]], spec.direction)
        for name, spec in pairs if spec.array == "hex"
    ]))
    out.metrics["rotation_err_deg"] = median(rotation_errors(ctx.cache))
    out.cost = wall / max(1, delivered)
    out.notes += [
        f"{n_pass} passes x {len(pairs)} sessions, block {WIRE_BLOCK_S} s, "
        f"window {WIRE_WINDOW} samples, {plan}",
        "pass walls: " + ", ".join(f"{w:.2f} s" for w in tally.pass_walls),
        f"latency samples: {len(latencies)} updates (read while streaming; "
        "updates flushed by BYE excluded)",
    ] + [
        f"latency {name}: p50 {percentile(lat, 50):.3f} s, p95 {percentile(lat, 95):.3f} s, "
        f"max {max(lat, default=0.0):.3f} s over {len(lat)} updates"
        for name, lat in tally.latencies.items()
    ]
    if traced:
        out.layer.update(_serving_rows(rows))
        out.layer["repairs"] = float(sum(_repairs(u) for _, u in got.values()))
        out.layer.update({
            "net.send_busy_s": tally.send_busy,
            "net.frames_sent": float(tally.frames),
            "net.useful_frac": delivered / tally.frames if tally.frames else 0.0,
            "net.reconnects": float(tally.reconnects),
            "net.recovery_s_max": max(tally.recovery, default=0.0),
            "net.crc_dropped": float(sum(int(r.get("net_crc", 0)) for r in rows)),
            "store.read_busy_s": tally.read_busy,
        })
    return out


def prepare_inputs(ctx: Context) -> None:
    """Generate every workload's inputs that are not cached yet.

    Done up front, so only the first run in a checkout pays for
    simulation, whichever workload it runs.
    """
    for spec in inputs.BATCH_SPECS:
        ctx.cache.path(spec)
    for _, spec in inputs.live_specs(ctx.seconds):
        ctx.cache.path(spec)
    for _, spec in inputs.WIRE_SPECS:
        ctx.cache.faulted_store(spec, **WIRE_LOSS)


WORKLOADS = {
    "batch_office": batch_office,
    "live_fleet": live_fleet,
    "wire_replay": wire_replay,
}
