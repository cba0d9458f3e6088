"""Command-line interface: run demos and regenerate paper experiments.

Usage::

    python -m repro.cli demo                 # quickstart distance demo
    python -m repro.cli demo --trace         # ... with pipeline profiling
    python -m repro.cli list                 # list reproducible figures
    python -m repro.cli run fig11 [--full]   # regenerate one figure
    python -m repro.cli run all  [--full]    # regenerate everything
    python -m repro.cli serve-sim            # concurrent multi-receiver replay
    python -m repro.cli record --out DIR     # record a simulated receiver
    python -m repro.cli replay DIR           # integrity-checked store replay
    python -m repro.cli convert SRC DEST     # legacy .npz -> chunked store
    python -m repro.cli net-serve            # TCP ingestion server
    python -m repro.cli net-load             # network load client (loopback
                                             # by default; --fault-plan for
                                             # wire faults)
    python -m repro.cli obs-top              # live per-session telemetry

``--log-level debug`` surfaces the pipeline's structured logging (guard
repairs, degradation, clock resampling) on stderr; the level propagates
to every ``repro.*`` module logger and records carry a ``[session]``
tag when the emitting layer knows one.

The long-runners accept telemetry flags (``--metrics-port``,
``--telemetry-jsonl``, ``--metrics-out``, ``--flight-dir``); any of
them enables :mod:`repro.obs` for the run, serves / exports registry
snapshots, and dumps the fault flight recorder on exit.  ``obs-top``
renders a per-session dashboard from a live ``--endpoint`` or an
exported ``--file``.

The long-runners (``serve-sim``, ``record``, ``replay``, ``net-serve``,
``net-load``) handle SIGINT/SIGTERM gracefully: the first signal drains
sessions, flushes writers, and prints the final health/metrics table; a
second signal aborts hard.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from typing import Callable, Dict

from repro.eval.report import render_report
from repro.serve.session import BACKPRESSURE_POLICIES
from repro.store.reader import READ_POLICIES


class _SessionTagFilter(logging.Filter):
    """Default ``record.session`` so the root format never KeyErrors.

    Layers that know their session pass ``extra={"session": name}``;
    everything else renders as ``[-]``.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "session"):
            record.session = "-"
        return True


#: Module loggers the CLI verbosity is propagated to explicitly, so a
#: library embedder's own root configuration cannot swallow ``--log-level
#: debug`` for the pipeline's structured logs.
_LOG_MODULES = (
    "repro.core",
    "repro.robustness",
    "repro.net",
    "repro.serve",
    "repro.store",
    "repro.obs",
)


def configure_logging(level: str) -> None:
    """Install the stderr handler and propagate *level* to repro loggers."""
    numeric = getattr(logging, level.upper())
    handler = logging.StreamHandler()
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s [%(session)s]: %(message)s")
    )
    handler.addFilter(_SessionTagFilter())
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(numeric)
    for name in _LOG_MODULES:
        logging.getLogger(name).setLevel(numeric)


def _add_telemetry_flags(sub_parser) -> None:
    group = sub_parser.add_argument_group(
        "telemetry", "any of these enables repro.obs for the run"
    )
    group.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live metrics over HTTP on this port (0 = ephemeral); "
        "paths: /metrics, /metrics.json, /flight.json, /healthz",
    )
    group.add_argument(
        "--telemetry-jsonl", default=None, metavar="PATH",
        help="append periodic registry snapshots to PATH as JSONL",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a final Prometheus-style exposition to PATH on exit",
    )
    group.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="dump flight-recorder artifacts into DIR (on protocol "
        "errors, guard escalations, and exit)",
    )


def _add_serving_flags(sub_parser, receivers: bool = False) -> None:
    """The serving flags ``_serve_config`` reads; with ``receivers``, also
    the flags ``_receivers`` reads."""
    if receivers:
        sub_parser.add_argument(
            "--sessions", type=int, default=8, help="simulated receiver count"
        )
        sub_parser.add_argument("--seed", type=int, default=0, help="testbed seed")
        sub_parser.add_argument(
            "--duration", type=float, default=2.0,
            help="per-receiver trajectory duration, seconds",
        )
        sub_parser.add_argument(
            "--store-dir", default=None, metavar="DIR",
            help="replay recorded receivers from this store / fleet directory "
            "instead of simulating",
        )
    sub_parser.add_argument(
        "--policy", default="block", choices=BACKPRESSURE_POLICIES,
        help="backpressure policy for a full ingest queue",
    )
    sub_parser.add_argument(
        "--queue-capacity", type=int, default=256,
        help="per-session ingest queue bound (packets)",
    )
    sub_parser.add_argument(
        "--block-seconds", type=float, default=1.0,
        help="streaming emission cadence, seconds",
    )


@contextlib.contextmanager
def _telemetry(args):
    """Wire the telemetry flags around a long-running verb.

    Yields the live :class:`~repro.obs.MetricsHTTPServer` (or None), so
    callers can print its URL; tears everything down — final JSONL
    snapshot, exposition file, flight dump — on the way out even when
    the verb raises.
    """
    from repro import obs

    flag_names = ("metrics_port", "telemetry_jsonl", "metrics_out", "flight_dir")
    if all(getattr(args, name, None) is None for name in flag_names):
        yield None
        return
    was_enabled = obs.enabled()
    obs.enable()
    if args.flight_dir:
        obs.FLIGHT.configure(args.flight_dir)
    exporter = server = None
    try:
        if args.telemetry_jsonl:
            exporter = obs.TelemetryExporter(args.telemetry_jsonl).start()
        if args.metrics_port is not None:
            server = obs.MetricsHTTPServer(port=args.metrics_port).start()
            print(f"metrics endpoint: {server.url}/metrics", file=sys.stderr)
        yield server
    finally:
        if exporter is not None:
            exporter.stop()
        if server is not None:
            server.stop()
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(obs.render_exposition())
        if args.flight_dir:
            obs.FLIGHT.auto_dump("cli-exit")
        if not was_enabled:
            obs.disable()


def _register_runners() -> Dict[str, Callable]:
    from repro.eval import ablations, applications, experiments, extensions

    return {
        "fig4": experiments.run_fig4_trrs_resolution,
        "fig5": experiments.run_fig5_alignment_matrix,
        "fig6": experiments.run_fig6_deviated_retracing,
        "fig7": experiments.run_fig7_movement_detection,
        "fig8": experiments.run_fig8_peak_tracking,
        "fig11": experiments.run_fig11_distance_accuracy,
        "fig12": experiments.run_fig12_heading_accuracy,
        "fig13": experiments.run_fig13_rotation_accuracy,
        "fig14": experiments.run_fig14_ap_location,
        "fig15": experiments.run_fig15_accumulation,
        "fig16": experiments.run_fig16_sampling_rate,
        "fig17": experiments.run_fig17_virtual_antennas,
        "fig18": applications.run_fig18_handwriting,
        "fig19": applications.run_fig19_gesture,
        "fig20": applications.run_fig20_pure_tracking,
        "fig21": applications.run_fig21_fusion_tracking,
        "sec629": applications.run_sec629_complexity,
        "ablation-metric": ablations.run_ablation_metric,
        "ablation-tracking": ablations.run_ablation_tracking,
        "ablation-sanitize": ablations.run_ablation_sanitize,
        "ablation-averaging": ablations.run_ablation_parallel_averaging,
        "ext-wiball": extensions.run_wiball_vs_rim,
        "ext-loss": extensions.run_loss_robustness,
        "ext-finedir": extensions.run_fine_direction,
        "sweep-antennas": extensions.run_antenna_count_sweep,
        "sweep-bandwidth": extensions.run_bandwidth_sweep,
        "sweep-streaming": extensions.run_streaming_throughput,
        "navigation": extensions.run_navigation,
    }


def cmd_demo(args) -> int:
    from repro import Rim, RimConfig, obs
    from repro.serve.simulate import simulated_receivers

    [(_, trace)] = simulated_receivers(1, seed=1, duration_s=3.0)
    truth = trace.trajectory
    fault_spec = getattr(args, "fault_plan", "")
    if fault_spec:
        from repro.robustness import FaultPlan

        trace = FaultPlan.from_spec(fault_spec).apply(trace)
        print(f"injected faults: {fault_spec}")
    if args.trace:
        obs.reset()
        obs.enable()
    rim = Rim(RimConfig(max_lag=60))
    result = rim.process(trace)
    err_cm = abs(result.total_distance - truth.total_distance) * 100
    print(f"simulated a {truth.total_distance:.1f} m push past a single unknown AP")
    print(f"RIM estimated {result.total_distance:.3f} m (error {err_cm:.1f} cm)")
    if result.health is not None:
        print()
        print(result.health.summary())
    if args.trace and result.stats is not None:
        obs.disable()
        print()
        print(obs.render_span_table(result.stats["spans"]))
        print()
        print(obs.METRICS.render_table())
    return 0


def _serve_config(args):
    """The ``ServeConfig`` the shared serving flags describe."""
    from repro.serve.session import ServeConfig

    return ServeConfig(
        backpressure=args.policy,
        queue_capacity=args.queue_capacity,
        block_seconds=args.block_seconds,
    )


def _receivers(args):
    """The receivers the flags pick, and a phrase describing them:
    the stores under ``--store-dir``, else ``--sessions`` simulated ones."""
    from repro.serve.simulate import simulated_receivers, store_receivers

    if args.store_dir:
        return (
            store_receivers(args.store_dir),
            f"recorded receivers from {args.store_dir}",
        )
    receivers = simulated_receivers(
        args.sessions, seed=args.seed, duration_s=args.duration
    )
    return receivers, f"{args.sessions} simulated receivers"


def cmd_serve_sim(args) -> int:
    from repro.serve.simulate import render_serve_table, run_serve_sim
    from repro.shutdown import GracefulShutdown

    with _telemetry(args), GracefulShutdown() as stop:
        receivers, source = _receivers(args)
        result = run_serve_sim(
            receivers,
            serve_config=_serve_config(args),
            n_workers=args.workers,
            record_dir=args.record_dir,
            should_stop=stop.stopper(),
            shards=args.shards,
        )
    if stop.triggered:
        print(
            f"{stop.signal_name}: replay stopped early; sessions drained "
            "and flushed",
            file=sys.stderr,
        )
    over = (
        f"{args.shards} shard processes" if args.shards else f"{args.workers} workers"
    )
    print(f"replaying {source} over {over} (policy {args.policy!r})")
    print()
    print(render_serve_table(result))
    agg = result["aggregate"]
    if agg["degraded_blocks"] or agg["rejected"]:
        print()
        print(
            f"warning: {agg['degraded_blocks']} degraded blocks, "
            f"{agg['rejected']} rejected packets",
            file=sys.stderr,
        )
    return 0


def cmd_record(args) -> int:
    from repro.serve.simulate import simulated_receivers
    from repro.shutdown import GracefulShutdown
    from repro.store import TraceWriter

    # The guard covers the whole command: a signal during the (long)
    # trace simulation still ends in a closed, replayable store.
    with GracefulShutdown() as stop:
        [(_, trace)] = simulated_receivers(
            1, seed=args.seed, duration_s=args.duration
        )
        if args.fault_plan:
            from repro.robustness import FaultPlan

            trace = FaultPlan.from_spec(args.fault_plan).apply(trace)
            print(f"injected faults: {args.fault_plan}")
        # Stream packet-by-packet (instead of one bulk write) so an
        # interrupt leaves a valid store: whole chunks on disk, manifest
        # closed.
        writer = TraceWriter(
            args.out,
            trace.array,
            carrier_wavelength=trace.carrier_wavelength,
            chunk_samples=args.chunk_samples,
            tx_positions=trace.tx_positions,
            trajectory=trace.trajectory,
            sampling_rate=trace.sampling_rate if trace.n_samples >= 2 else None,
        )
        with writer:
            for k in range(trace.n_samples):
                if stop.should_stop():
                    break
                writer.append(trace.data[k], float(trace.times[k]))
    if stop.triggered:
        print(
            f"{stop.signal_name}: recording stopped early; store flushed "
            "and manifest closed",
            file=sys.stderr,
        )
    print(
        f"recorded {writer.n_samples} samples "
        f"({trace.trajectory.total_distance:.1f} m walk) into {args.out}: "
        f"{writer.n_chunks} chunks, {writer.bytes_written} bytes"
    )
    return 0


def cmd_replay(args) -> int:
    from repro.core.config import RimConfig
    from repro.shutdown import GracefulShutdown
    from repro.store import CheckpointedReplayer, TraceReader

    reader = TraceReader(args.store, policy=args.guard)
    config = RimConfig(guard_policy=args.guard)
    if args.resume:
        replayer = CheckpointedReplayer.resume(
            reader, args.resume, config=config, block_seconds=args.block_seconds
        )
        print(f"resumed from {args.resume} at chunk {replayer.cursor}")
    else:
        replayer = CheckpointedReplayer(
            reader, config=config, block_seconds=args.block_seconds
        )
    with GracefulShutdown() as stop:
        updates = replayer.run(
            max_chunks=args.max_chunks, should_stop=stop.stopper()
        )
    if stop.triggered:
        print(
            f"{stop.signal_name}: replay stopped at chunk {replayer.cursor} "
            "(checkpointable boundary)",
            file=sys.stderr,
        )
    if args.checkpoint:
        replayer.save(args.checkpoint)
        print(f"checkpoint written to {args.checkpoint} at chunk {replayer.cursor}")

    # Store-level repairs come from the reader's report; health reports
    # carry the same counts (folded in per block), so only the guard's
    # own repairs are merged from there.
    repairs: Dict[str, int] = dict(reader.report.repairs())
    for update in updates:
        if update.health is not None:
            for key, value in update.health.repairs.items():
                if not key.startswith("store_"):
                    repairs[key] = repairs.get(key, 0) + value
    report = reader.report
    print(
        f"replayed {report.n_chunks_read}/{report.n_chunks} chunks "
        f"({report.n_samples_read} samples) from {args.store} "
        f"under guard {args.guard!r}"
    )
    print(
        f"{len(updates)} updates, total distance "
        f"{replayer.stream.total_distance:.3f} m"
    )
    if repairs:
        print("repairs: " + ", ".join(f"{k}={v}" for k, v in sorted(repairs.items())))
    missing = [key for key in args.expect_repair if not repairs.get(key)]
    if missing:
        print(
            f"expected repair counters missing or zero: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_net_serve(args) -> int:
    import time
    from pathlib import Path

    from repro.net import NetServer, NetServerConfig, render_net_table
    from repro.shutdown import GracefulShutdown

    config = NetServerConfig(
        host=args.host,
        port=args.port,
        reorder_window=args.reorder_window,
        heartbeat_s=args.heartbeat,
        idle_timeout_s=args.idle_timeout,
    )
    serve_config = _serve_config(args)
    router = None
    if args.shards:
        from repro.shard.router import ShardRouter, fleet_sync_loop

        router = ShardRouter(
            args.shards,
            serve_config=serve_config,
            record_dir=args.record_dir or None,
        )
        router.wait_ready()
        server = NetServer(config=config, manager=router, serve_config=serve_config)
    else:
        server = NetServer(config=config, serve_config=serve_config)
        if args.record_dir:
            server.manager.record_dir = Path(args.record_dir)
    with _telemetry(args):
        t0 = time.perf_counter()
        server.start()
        where = f"{config.host}:{server.port}"
        if router is not None:
            print(f"net server listening on {where} ({args.shards} shards)")
        else:
            print(f"net server listening on {where}")
        with GracefulShutdown() as stop:
            if router is not None:
                fleet_sync_loop(router, interval_s=2.0, should_stop=stop.should_stop)
            try:
                while not stop.should_stop():
                    time.sleep(0.2)
            finally:
                server.close()
                wall = time.perf_counter() - t0
                # A fleet's stats live in its workers; capture before teardown.
                rows = server.session_stats()
                if router is not None:
                    router.close()
    if stop.triggered:
        print(
            f"{stop.signal_name}: server stopped; sessions flushed",
            file=sys.stderr,
        )
    if rows:
        n_samples = sum(int(r["offered"]) for r in rows)
        print()
        print(
            render_net_table(
                {
                    "sessions": rows,
                    "baseline_match": None,
                    "aggregate": {
                        "n_sessions": len(rows),
                        "n_samples": n_samples,
                        "wall_s": wall,
                        "samples_per_second": n_samples / wall,
                        "reconnects": sum(
                            int(r.get("reconnects", 0)) for r in rows
                        ),
                    },
                }
            )
        )
    return 0


def cmd_net_load(args) -> int:
    from repro.net import NetFaultPlan, render_net_table, run_net_load
    from repro.shutdown import GracefulShutdown

    receivers, source = _receivers(args)
    plan = NetFaultPlan.from_spec(args.fault_plan) if args.fault_plan else None
    loopback = args.host is None
    print(
        f"streaming {source} over "
        f"{'a loopback server' if loopback else f'{args.host}:{args.port}'}"
        + (f" with wire faults: {args.fault_plan}" if args.fault_plan else "")
    )
    with _telemetry(args), GracefulShutdown() as stop:
        result = run_net_load(
            receivers,
            fault_plan=plan,
            serve_config=_serve_config(args),
            host=args.host,
            port=args.port,
            check_baseline=loopback and not args.no_baseline,
            should_stop=stop.stopper(),
        )
    if stop.triggered:
        print(
            f"{stop.signal_name}: load stopped early; streams closed with "
            "BYE and sessions flushed",
            file=sys.stderr,
        )
    print()
    print(render_net_table(result))
    if result["baseline_match"] is False:
        print(
            "network stream DIVERGED from the in-process baseline",
            file=sys.stderr,
        )
        return 1
    if args.expect_recovery:
        agg = result["aggregate"]
        if not result.get("stopped_early") and agg["reconnects"] < 1:
            print(
                "expected at least one reconnect-resume, saw none",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_obs_top(args) -> int:
    import json
    import time
    from urllib.request import urlopen

    from repro.obs.export import (
        read_last_snapshot,
        render_dashboard,
        session_rows,
    )

    if bool(args.endpoint) == bool(args.file):
        print(
            "obs-top needs exactly one source: --endpoint URL or --file PATH",
            file=sys.stderr,
        )
        return 2

    def fetch() -> Dict:
        if args.endpoint:
            url = args.endpoint.rstrip("/") + "/metrics.json"
            with urlopen(url, timeout=5.0) as resp:
                return json.loads(resp.read().decode("utf-8"))
        return read_last_snapshot(args.file)

    title = f"rim obs-top — {args.endpoint or args.file}"
    # session -> (offered, snapshot ts): throughput is the offered delta
    # between consecutive snapshots.
    previous: Dict[str, tuple] = {}
    while True:
        try:
            payload = fetch()
        except (OSError, ValueError) as exc:
            print(f"obs-top: {exc}", file=sys.stderr)
            return 1
        now = float(payload.get("ts", time.time()))
        rows = session_rows(payload.get("metrics", {}))
        for row in rows:
            before = previous.get(row["session"])
            if before is not None and now > before[1]:
                row["rate"] = (row["offered"] - before[0]) / (now - before[1])
            previous[row["session"]] = (row["offered"], now)
        print(render_dashboard(rows, title=title))
        if args.once:
            return 0
        time.sleep(args.interval)
        print()


def cmd_convert(args) -> int:
    from pathlib import Path

    from repro.store import npz_to_store

    src = Path(args.src)
    if not src.is_file():
        print(f"{src} is not a legacy .npz archive", file=sys.stderr)
        return 2
    writer = npz_to_store(src, args.dest, chunk_samples=args.chunk_samples)
    print(
        f"converted legacy archive {src} -> store {args.dest} "
        f"({writer.n_chunks} chunks, {writer.n_samples} samples)"
    )
    return 0


def cmd_list(_args) -> int:
    runners = _register_runners()
    print("reproducible experiments:")
    for name, fn in runners.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<20} {doc}")
    return 0


def cmd_run(args) -> int:
    runners = _register_runners()
    targets = list(runners) if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in runners]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(runners)}", file=sys.stderr)
        return 2
    for name in targets:
        result = runners[name](seed=args.seed, quick=not args.full)
        print(render_report(name, result))
        if args.plot:
            from repro.eval.figures import render_result_figures

            print()
            print(render_result_figures(name, result))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RIM (SIGCOMM'19) reproduction: RF-based inertial measurement",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="stderr logging verbosity for the pipeline's structured logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a 30-second distance-tracking demo")
    demo.add_argument(
        "--fault-plan",
        default="",
        metavar="SPEC",
        help="inject ingestion faults before processing, e.g. "
        '"dead_chain=1,loss=0.1,burst=12,reorder=0.02" '
        "(see repro.robustness.FaultPlan.from_spec)",
    )
    demo.add_argument(
        "--trace",
        action="store_true",
        help="enable repro.obs instrumentation and print span/metric tables",
    )
    sub.add_parser("list", help="list reproducible figures")

    run = sub.add_parser("run", help="regenerate a paper figure")
    run.add_argument("experiment", help='figure id (e.g. "fig11") or "all"')
    run.add_argument("--full", action="store_true", help="paper-scale workload")
    run.add_argument("--seed", type=int, default=0, help="scenario seed")
    run.add_argument("--plot", action="store_true", help="render ASCII figures")

    serve = sub.add_parser(
        "serve-sim",
        help="replay N simulated receivers concurrently through repro.serve",
    )
    _add_serving_flags(serve, receivers=True)
    serve.add_argument(
        "--workers", type=int, default=4,
        help="threads driving the sessions of an in-process run",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="fan sessions across N shard worker processes (repro.shard) "
        "instead of one in-process manager",
    )
    serve.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="record every session's ingest into chunked stores under DIR",
    )
    _add_telemetry_flags(serve)

    record = sub.add_parser(
        "record", help="record a simulated receiver into a chunked trace store"
    )
    record.add_argument(
        "--out", required=True, metavar="DIR", help="store directory to create"
    )
    record.add_argument("--seed", type=int, default=1, help="testbed seed")
    record.add_argument(
        "--duration", type=float, default=3.0,
        help="trajectory duration, seconds",
    )
    record.add_argument(
        "--chunk-samples", type=int, default=256, help="packets per chunk file"
    )
    record.add_argument(
        "--fault-plan", default="", metavar="SPEC",
        help="inject ingestion faults before recording "
        "(see repro.robustness.FaultPlan.from_spec)",
    )

    replay = sub.add_parser(
        "replay",
        help="replay a recorded store through the streaming estimator",
    )
    replay.add_argument("store", help="store directory to replay")
    replay.add_argument(
        "--guard", default="repair", choices=READ_POLICIES,
        help="fault policy for corrupt/missing chunks (and the stream guard)",
    )
    replay.add_argument(
        "--block-seconds", type=float, default=1.0,
        help="streaming emission cadence, seconds",
    )
    replay.add_argument(
        "--max-chunks", type=int, default=None, metavar="K",
        help="stop after K chunks (the checkpoint boundary)",
    )
    replay.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resume checkpoint (.npz) after the run",
    )
    replay.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a checkpoint written by --checkpoint",
    )
    replay.add_argument(
        "--expect-repair", action="append", default=[], metavar="KEY",
        help="exit nonzero unless this repair counter is present and nonzero "
        "(CI assertion; repeatable)",
    )

    net_serve = sub.add_parser(
        "net-serve", help="run the TCP CSI ingestion server"
    )
    net_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    net_serve.add_argument(
        "--port", type=int, default=7316, help="bind port (0 = ephemeral)"
    )
    net_serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="fan sessions across N shard worker processes (repro.shard); "
        "with --record-dir, a dead shard's sessions resume on survivors",
    )
    _add_serving_flags(net_serve)
    net_serve.add_argument(
        "--reorder-window", type=int, default=64,
        help="out-of-order samples buffered before a gap is skipped",
    )
    net_serve.add_argument(
        "--heartbeat", type=float, default=2.0,
        help="per-connection PING cadence, seconds",
    )
    net_serve.add_argument(
        "--idle-timeout", type=float, default=30.0,
        help="close connections idle this long, seconds",
    )
    net_serve.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="record every session's ingest into chunked stores under DIR",
    )
    _add_telemetry_flags(net_serve)

    net_load = sub.add_parser(
        "net-load",
        help="stream receivers through the network front-end "
        "(loopback server by default)",
    )
    net_load.add_argument(
        "--host", default=None,
        help="send to an already-running server (default: spin up loopback)",
    )
    net_load.add_argument(
        "--port", type=int, default=7316, help="server port (with --host)"
    )
    _add_serving_flags(net_load, receivers=True)
    net_load.set_defaults(sessions=2)
    net_load.add_argument(
        "--fault-plan", default="", metavar="SPEC",
        help="wire faults injected between client and server, e.g. "
        '"drop=0.05,reorder=0.1,corrupt=0.02,disconnect=100" '
        "(see repro.net.NetFaultPlan.from_spec)",
    )
    net_load.add_argument(
        "--no-baseline", action="store_true",
        help="skip the bit-identity comparison against the in-process run",
    )
    net_load.add_argument(
        "--expect-recovery", action="store_true",
        help="exit nonzero unless at least one reconnect-resume happened "
        "(CI assertion for disconnect fault plans)",
    )
    _add_telemetry_flags(net_load)

    obs_top = sub.add_parser(
        "obs-top",
        help="render a live per-session telemetry table "
        "(throughput, latency percentiles, queue depth, repairs)",
    )
    obs_top.add_argument(
        "--endpoint", default=None, metavar="URL",
        help="metrics HTTP endpoint base URL (a long-runner's "
        "--metrics-port), e.g. http://127.0.0.1:9316",
    )
    obs_top.add_argument(
        "--file", default=None, metavar="PATH",
        help="read the latest snapshot from a --telemetry-jsonl file "
        "instead of a live endpoint",
    )
    obs_top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period, seconds",
    )
    obs_top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )

    convert = sub.add_parser(
        "convert", help="import a legacy .npz archive into a chunked trace store"
    )
    convert.add_argument("src", help="legacy .npz archive")
    convert.add_argument("dest", help="destination store directory")
    convert.add_argument(
        "--chunk-samples", type=int, default=256,
        help="packets per chunk file",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    handlers = {
        "demo": cmd_demo,
        "list": cmd_list,
        "run": cmd_run,
        "serve-sim": cmd_serve_sim,
        "record": cmd_record,
        "replay": cmd_replay,
        "convert": cmd_convert,
        "net-serve": cmd_net_serve,
        "net-load": cmd_net_load,
        "obs-top": cmd_obs_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
