"""End-to-end telemetry pipeline: provenance, exporter, flight recorder.

Covers the PR-7 acceptance criteria:

* per-sample provenance breakdowns telescope exactly — the stage sum IS
  the end-to-end latency, on the in-process serve path and across the
  faulted network front-end (side-band TELEMETRY frames);
* the registry exports losslessly as JSONL snapshots and Prometheus-style
  text exposition, served over the stdlib HTTP endpoint, and ``obs-top``
  renders per-session rows from either source;
* the flight recorder keeps a bounded ring of events and dumps a
  schema-valid JSON artifact on protocol errors and shutdown;
* the live gauges (``serve.queue_depth``, ``net.retained_frames``) are
  refreshed by registry collectors at snapshot time.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.net import framing
from repro.obs.export import (
    parse_exposition,
    parse_metric_name,
    read_last_snapshot,
    render_dashboard,
    render_exposition,
    session_rows,
)
from repro.obs.flight import FlightRecorder, validate_flight_dump
from repro.obs.provenance import (
    BREAKDOWN_STAGES,
    PROV_HISTOGRAMS,
    SampleProvenance,
    block_breakdown,
    validate_breakdown,
)


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset()
    obs.FLIGHT.configure(None)
    yield
    obs.disable()
    obs.reset()
    obs.FLIGHT.configure(None)


def _serve_session(trace, name="rx00"):
    from repro.serve.session import ServeConfig, ServeSession

    from repro import RimConfig

    return ServeSession(
        name,
        trace.array,
        trace.sampling_rate,
        rim_config=RimConfig(max_lag=40),
        serve_config=ServeConfig(block_seconds=1.0),
        carrier_wavelength=trace.carrier_wavelength,
    )


# -- provenance breakdowns ------------------------------------------------


def test_breakdown_telescopes_exactly():
    prov = SampleProvenance("t0", created_s=1.0)
    prov.ingest_s = 1.25
    prov.dequeue_s = 1.5
    breakdown = block_breakdown(prov, 1.5, 1.9, 2.0, n_samples=7)
    validate_breakdown(breakdown)
    assert breakdown["trace_id"] == "t0"
    assert breakdown["n_samples"] == 7
    assert breakdown["e2e_s"] == sum(breakdown[k] for k in BREAKDOWN_STAGES)
    assert breakdown["wire_s"] == pytest.approx(0.25)
    assert breakdown["kernel_s"] == pytest.approx(0.4)


def test_breakdown_clamps_clock_skew():
    """A client clock ahead of the server must not produce negative stages."""
    prov = SampleProvenance("skew", created_s=100.0)
    prov.stamp_ingest()
    prov.stamp_dequeue()
    breakdown = block_breakdown(
        prov, prov.dequeue_s, prov.dequeue_s, prov.dequeue_s
    )
    validate_breakdown(breakdown)
    assert all(breakdown[k] >= 0.0 for k in BREAKDOWN_STAGES)


def test_validate_breakdown_rejects_bad_payloads():
    with pytest.raises(ValueError):
        validate_breakdown({"trace_id": "x", "e2e_s": 1.0})
    prov = SampleProvenance("x")
    prov.stamp_ingest()
    prov.stamp_dequeue()
    breakdown = block_breakdown(prov, prov.dequeue_s, prov.dequeue_s + 0.1, 0.0)
    breakdown["e2e_s"] += 0.5
    with pytest.raises(ValueError):
        validate_breakdown(breakdown)


def test_serve_path_stamps_every_update(line_trace):
    obs.enable()
    session = _serve_session(line_trace)
    for k in range(line_trace.n_samples):
        session.offer(line_trace.data[k], float(line_trace.times[k]))
        session.drain()
    updates = session.flush()
    assert updates
    for update in updates:
        breakdown = update.stats["provenance"]
        validate_breakdown(breakdown)
        assert breakdown["trace_id"].startswith("rx00:")
    snap = obs.METRICS.snapshot()
    for name in PROV_HISTOGRAMS:
        assert snap[name]["count"] == len(updates)


def test_provenance_absent_when_disabled(line_trace):
    session = _serve_session(line_trace)
    for k in range(line_trace.n_samples):
        session.offer(line_trace.data[k], float(line_trace.times[k]))
        session.drain()
    updates = session.flush()
    assert updates
    for update in updates:
        assert "provenance" not in (update.stats or {})


def test_provenance_never_perturbs_estimates(line_trace):
    """Tracing invariance extends to provenance stamping (tier-1 guard)."""

    def run():
        session = _serve_session(line_trace)
        for k in range(line_trace.n_samples):
            session.offer(line_trace.data[k], float(line_trace.times[k]))
            session.drain()
        return session.flush()

    baseline = run()
    obs.enable()
    traced = run()
    obs.disable()
    assert len(baseline) == len(traced)
    for a, b in zip(baseline, traced):
        assert a.speed.tobytes() == b.speed.tobytes()
        assert a.heading.tobytes() == b.heading.tobytes()
        assert a.times.tobytes() == b.times.tobytes()
        assert a.total_distance == b.total_distance


# -- wire telemetry frames ------------------------------------------------


def test_sample_telemetry_frame_round_trip():
    blob = framing.pack_sample_telemetry(3, 41, 12.75)
    frame = framing.unpack_frame(blob)
    assert frame.frame_type == framing.FRAME_TELEMETRY
    assert frame.seq == 41
    assert framing.unpack_sample_telemetry(frame.payload) == 12.75


def test_update_telemetry_frame_round_trip():
    breakdown = {"trace_id": "rx00:9", "e2e_s": 0.5}
    blob = framing.pack_update_telemetry(3, 2, breakdown)
    frame = framing.unpack_frame(blob)
    assert framing.unpack_update_telemetry(frame.payload) == breakdown


def test_telemetry_frame_rejects_malformed_payloads():
    with pytest.raises(framing.FrameError):
        framing.unpack_sample_telemetry(b"\x00" * 7)
    with pytest.raises(framing.FrameError):
        framing.unpack_update_telemetry(
            json.dumps({"provenance": 7}).encode("utf-8")
        )


def test_golden_frame_types_untouched():
    """TELEMETRY is purely additive: existing frame ids keep their values."""
    assert framing.FRAME_TELEMETRY == 11
    assert framing.FRAME_TELEMETRY in framing.FRAME_TYPES
    assert framing.FRAME_NAMES[framing.FRAME_TELEMETRY] == "TELEMETRY"


def _completing_seqs(trace, plan):
    """Wire seq of the sample that completes each block of a served
    stream: the sample whose trace context the block's breakdown names."""
    from repro.core.streaming import StreamingRim
    from repro.serve.session import ServeConfig

    delivered = sorted(plan.delivered_seqs(trace.n_samples))
    stream = StreamingRim(
        trace.array, trace.sampling_rate,
        block_seconds=ServeConfig().block_seconds,
        carrier_wavelength=trace.carrier_wavelength,
    )
    seqs = [
        seq for seq in delivered
        if stream.push(trace.data[seq], float(trace.times[seq])) is not None
    ]
    if stream.flush() is not None:
        seqs.append(delivered[-1])
    return seqs


@pytest.mark.parametrize("backend", ["in-process", "fleet"])
def test_faulted_wire_updates_carry_breakdowns(backend):
    """Every update names the context ``NetServer`` minted for its
    block's last sample, whether a local manager or a shard worker
    computed it."""
    from repro.net import NetFaultPlan, run_net_load
    from repro.net.server import NetServer, NetServerConfig
    from repro.serve.simulate import simulated_receivers
    from repro.shard import ShardRouter

    obs.enable()
    receivers = simulated_receivers(2, seed=3, duration_s=1.0)
    plan = NetFaultPlan(
        seed=7, drop_fraction=0.05, duplicate_fraction=0.05,
        corrupt_fraction=0.03,
    )
    router = ShardRouter(2) if backend == "fleet" else None
    server = NetServer(manager=router, config=NetServerConfig(port=0)).start()
    try:
        result = run_net_load(
            receivers, fault_plan=plan, host=server.config.host,
            port=server.port, check_baseline=True,
        )
        snap = obs.METRICS.snapshot()
    finally:
        server.close()
        if router is not None:
            router.close()
    obs.disable()

    assert result["baseline_match"] is True
    n_updates = 0
    for name, trace in receivers:
        updates = result["updates"][name]
        for update in updates:
            validate_breakdown(update.stats["provenance"])
        assert [u.stats["provenance"]["trace_id"] for u in updates] == [
            f"{name}:{seq}" for seq in _completing_seqs(trace, plan)
        ]
        n_updates += len(updates)
    assert n_updates > 0
    for name in PROV_HISTOGRAMS:
        assert snap[name]["count"] > 0


def test_baseline_replay_stays_out_of_telemetry():
    """The bit-identity oracle replays each stream in process under the
    served session's name; its work must not count as served traffic,
    nor leave session events in the flight recorder."""
    from repro.net import NetFaultPlan, run_net_load
    from repro.serve.simulate import simulated_receivers

    obs.enable()
    obs.FLIGHT.clear()
    receivers = simulated_receivers(2, seed=3, duration_s=1.0)
    plan = NetFaultPlan(seed=7, drop_fraction=0.05, corrupt_fraction=0.03)
    result = run_net_load(receivers, fault_plan=plan, check_baseline=True)
    assert obs.enabled(), "the replay must restore the obs state"
    snap = obs.METRICS.snapshot()

    assert result["baseline_match"] is True
    for row in result["sessions"]:
        offered = snap[f"serve.offered{{session={row['session']}}}"]["value"]
        assert offered == row["offered"], row["session"]
    served = sum(len(updates) for updates in result["updates"].values())
    assert snap["span.stream.block"]["count"] == served
    events = [e for e in obs.FLIGHT.snapshot() if e["kind"] == "session"]
    for name, _ in receivers:
        actions = [e["detail"]["action"] for e in events if e["session"] == name]
        assert actions.count("created") == 1, (name, actions)
        assert "evicted" not in actions, (name, actions)


# -- live gauges ----------------------------------------------------------


def test_retained_frames_gauge_live_while_server_up():
    from repro.net.server import NetServer, NetServerConfig

    obs.enable()
    server = NetServer(config=NetServerConfig(port=0)).start()
    try:
        snap = obs.METRICS.snapshot()
        assert snap["net.retained_frames"]["value"] == 0
    finally:
        server.close()
    # Closing deregisters the collector; the snapshot must not fail.
    obs.METRICS.snapshot()


def test_queue_depth_gauge_refreshes_at_snapshot_time(line_trace):
    from repro.serve.session import SessionManager

    obs.enable()
    manager = SessionManager()
    manager.create(
        "rx00", line_trace.array, line_trace.sampling_rate,
        carrier_wavelength=line_trace.carrier_wavelength,
    )
    for k in range(5):
        manager.push("rx00", line_trace.data[k], float(line_trace.times[k]))
    snap = obs.METRICS.snapshot()
    assert snap["serve.queue_depth{session=rx00}"]["value"] == 5
    manager.get("rx00").drain()
    snap = obs.METRICS.snapshot()
    assert snap["serve.queue_depth{session=rx00}"]["value"] == 0


# -- exporter + exposition ------------------------------------------------


def _populate_registry():
    obs.enable()
    obs.add("serve.offered{session=rx00}", 40)
    obs.set_gauge("serve.queue_depth{session=rx00}", 2)
    obs.add("serve.repairs{session=rx00}", 3)
    for v in (0.01, 0.02, 0.04):
        obs.observe(
            "serve.block_latency_s{session=rx00}", v,
            bounds=obs.LATENCY_BOUNDS_S,
        )


def test_exporter_jsonl_round_trip(tmp_path):
    _populate_registry()
    path = tmp_path / "telemetry.jsonl"
    with obs.TelemetryExporter(path, interval_s=0.02):
        time.sleep(0.08)
    lines = path.read_text().strip().splitlines()
    assert len(lines) >= 2
    assert json.loads(lines[-1])["event"] == "final"
    snap = read_last_snapshot(path)
    assert snap["schema"] == obs.TELEMETRY_SCHEMA
    assert snap["metrics"]["serve.offered{session=rx00}"]["value"] == 40
    seqs = [json.loads(line)["seq"] for line in lines]
    assert seqs == sorted(seqs)


def test_exposition_round_trip():
    _populate_registry()
    text = render_exposition()
    families = parse_exposition(text)
    counters = families["rim_serve_offered_total"]
    assert counters["type"] == "counter"
    [(name, labels, value)] = counters["samples"]
    assert labels == {"session": "rx00"} and value == 40
    hist = families["rim_serve_block_latency_s"]
    assert hist["type"] == "histogram"
    counts = {
        labels["le"]: value
        for name, labels, value in hist["samples"]
        if name.endswith("_bucket")
    }
    assert counts["+Inf"] == 3


def test_parse_exposition_rejects_malformed():
    with pytest.raises(ValueError):
        parse_exposition("rim_orphan_metric 1\n")
    bad_hist = (
        "# TYPE rim_h histogram\n"
        'rim_h_bucket{le="0.1"} 5\n'
        'rim_h_bucket{le="+Inf"} 3\n'  # non-cumulative
        "rim_h_sum 1\nrim_h_count 3\n"
    )
    with pytest.raises(ValueError):
        parse_exposition(bad_hist)


def test_metric_name_label_parsing():
    assert parse_metric_name("serve.offered{session=rx00}") == (
        "serve.offered", {"session": "rx00"}
    )
    assert parse_metric_name("net.frames_rx") == ("net.frames_rx", {})


def test_http_endpoint_serves_all_paths():
    _populate_registry()
    with obs.MetricsHTTPServer() as server:
        text = urllib.request.urlopen(server.url + "/metrics").read().decode()
        families = parse_exposition(text)
        assert "rim_serve_offered_total" in families
        payload = json.loads(
            urllib.request.urlopen(server.url + "/metrics.json").read()
        )
        assert payload["schema"] == obs.TELEMETRY_SCHEMA
        flight = json.loads(
            urllib.request.urlopen(server.url + "/flight.json").read()
        )
        validate_flight_dump(flight)
        ok = urllib.request.urlopen(server.url + "/healthz").read()
        assert ok == b"ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(server.url + "/nope")


# -- obs-top dashboard ----------------------------------------------------


def test_session_rows_and_dashboard():
    _populate_registry()
    rows = session_rows(obs.METRICS.snapshot())
    assert [r["session"] for r in rows] == ["rx00"]
    row = rows[0]
    assert row["offered"] == 40
    assert row["queue_depth"] == 2
    assert row["repairs"] == 3
    assert 0.0 < row["p50_s"] <= row["p95_s"]
    table = render_dashboard(rows)
    assert "rx00" in table and "p95 ms" in table
    assert "(no per-session metrics yet)" in render_dashboard([])


def test_obs_top_cli_from_file_and_endpoint(tmp_path, capsys):
    from repro import cli

    _populate_registry()
    path = tmp_path / "telemetry.jsonl"
    obs.TelemetryExporter(path).start().stop()

    assert cli.main(["obs-top", "--file", str(path), "--once"]) == 0
    assert "rx00" in capsys.readouterr().out

    with obs.MetricsHTTPServer() as server:
        assert cli.main(["obs-top", "--endpoint", server.url, "--once"]) == 0
    assert "rx00" in capsys.readouterr().out

    # Exactly one source is required.
    assert cli.main(["obs-top", "--once"]) == 2


# -- flight recorder ------------------------------------------------------


def test_flight_recorder_ring_and_dump(tmp_path):
    recorder = FlightRecorder(capacity=4)
    for k in range(9):
        recorder.record("tick", "test", session="rx00", k=k)
    payload = recorder.payload("unit-test")
    validate_flight_dump(payload)
    assert len(payload["events"]) == 4
    assert [e["detail"]["k"] for e in payload["events"]] == [5, 6, 7, 8]
    path = tmp_path / "flight.json"
    recorder.dump("unit-test", path)
    validate_flight_dump(json.loads(path.read_text()))


def test_flight_auto_dump_budget(tmp_path):
    recorder = FlightRecorder(capacity=8, max_dumps=2)
    assert recorder.auto_dump("unconfigured") is None
    recorder.configure(tmp_path)
    recorder.record("x", "test")
    first = recorder.auto_dump("reason one!")
    second = recorder.auto_dump("reason-two")
    assert first is not None and first.exists()
    assert "reason-one" in first.name
    assert recorder.auto_dump("over-budget") is None
    assert len(list(tmp_path.glob("flight-*.json"))) == 2
    validate_flight_dump(json.loads(second.read_text()))


def test_validate_flight_dump_rejects_drift():
    recorder = FlightRecorder()
    recorder.record("x", "test")
    payload = recorder.payload("ok")
    bad = dict(payload, schema="rim-flight/v0")
    with pytest.raises(ValueError):
        validate_flight_dump(bad)
    with pytest.raises(ValueError):
        validate_flight_dump({"schema": payload["schema"]})


def test_protocol_error_dumps_flight_artifact(tmp_path):
    """DATA before HELLO is a protocol error: ERROR frame + flight dump."""
    from repro.net.server import NetServer, NetServerConfig

    obs.FLIGHT.configure(tmp_path)
    server = NetServer(config=NetServerConfig(port=0)).start()
    try:
        with socket.create_connection(("127.0.0.1", server.port), 5.0) as sock:
            payload = np.zeros(4, dtype=np.complex64).tobytes()
            sock.sendall(
                framing.pack_frame(framing.FRAME_DATA, 0, 0, payload)
            )
            sock.settimeout(5.0)
            deadline = time.time() + 5.0
            blob = b""
            while time.time() < deadline:
                try:
                    chunk = sock.recv(4096)
                except TimeoutError:
                    break
                if not chunk:
                    break
                blob += chunk
    finally:
        server.close()
    dumps = list(tmp_path.glob("flight-*protocol-error*.json"))
    assert dumps, "protocol error must produce a flight artifact"
    payload = json.loads(dumps[0].read_text())
    validate_flight_dump(payload)
    assert any(e["kind"] == "protocol_error" for e in payload["events"])


def test_graceful_shutdown_records_flight_event(tmp_path):
    from repro.shutdown import GracefulShutdown

    obs.FLIGHT.configure(tmp_path)
    with GracefulShutdown() as stop:
        stop.request_stop()
    dumps = list(tmp_path.glob("flight-*graceful-shutdown*.json"))
    assert dumps
    payload = json.loads(dumps[0].read_text())
    validate_flight_dump(payload)
    assert any(e["kind"] == "shutdown" for e in payload["events"])


# -- CLI telemetry flags --------------------------------------------------


def test_net_load_cli_writes_telemetry_artifacts(tmp_path, capsys):
    from repro import cli

    jsonl = tmp_path / "telemetry.jsonl"
    metrics_out = tmp_path / "metrics.txt"
    flight_dir = tmp_path / "flight"
    rc = cli.main([
        "net-load", "--sessions", "1", "--duration", "1.0",
        "--telemetry-jsonl", str(jsonl),
        "--metrics-out", str(metrics_out),
        "--flight-dir", str(flight_dir),
    ])
    assert rc == 0
    assert not obs.enabled(), "CLI must restore the obs state on exit"
    families = parse_exposition(metrics_out.read_text())
    for name in PROV_HISTOGRAMS:
        family = families["rim_" + name.replace(".", "_")]
        assert family["type"] == "histogram"
    snap = read_last_snapshot(jsonl)
    assert any(k.startswith("prov.") for k in snap["metrics"])
    dumps = list(flight_dir.glob("flight-*.json"))
    assert dumps
    validate_flight_dump(json.loads(dumps[0].read_text()))


def test_configure_logging_session_tag(capsys):
    import logging

    from repro.cli import _SessionTagFilter

    handler = logging.StreamHandler()
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s [%(session)s]: %(message)s")
    )
    handler.addFilter(_SessionTagFilter())
    logger = logging.getLogger("repro.test_telemetry")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        logger.info("plain")
        logger.info("tagged", extra={"session": "rx07"})
    finally:
        logger.removeHandler(handler)
    err = capsys.readouterr().err
    assert "[-]: plain" in err
    assert "[rx07]: tagged" in err
