"""Tests for the fault-tolerant network ingestion front-end (repro.net)."""

import gc
import logging
import os
import re
import signal
import socket
import threading
import time
import weakref

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import RimConfig
from repro.core.streaming import MotionUpdate
from repro.motionsim.profiles import line_trajectory
from repro.net import (
    FrameDecoder,
    FrameError,
    NetClient,
    NetClientConfig,
    NetClientError,
    NetFaultPlan,
    NetServer,
    NetServerConfig,
    SeqTracker,
    WireFaultInjector,
    baseline_updates,
    pack_frame,
    render_net_table,
    run_net_load,
    unpack_frame,
    updates_equal,
)
from repro.net import framing
from repro.robustness.health import HealthReport
from repro.serve.session import ServeConfig, SessionManager
from repro.shard.router import ShardRouter
from repro.shutdown import GracefulShutdown


@pytest.fixture(scope="module")
def net_trace(fast_sampler, three_antenna):
    """One short receiver trace for loopback runs."""
    traj = line_trajectory((10.0, 8.0), 30.0, 0.5, 1.5)
    return fast_sampler.sample(traj, three_antenna)


def _packet(seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(3, 2, 8)) + 1j * rng.normal(size=(3, 2, 8))
    ).astype(np.complex64)


# -- framing -------------------------------------------------------------------


class TestFraming:
    def test_round_trip_all_types(self):
        for frame_type in framing.FRAME_TYPES:
            raw = pack_frame(frame_type, session_id=7, seq=42, payload=b"xyz")
            frame = unpack_frame(raw)
            assert frame.frame_type == frame_type
            assert frame.session_id == 7
            assert frame.seq == 42
            assert frame.payload == b"xyz"

    def test_unknown_type_and_oversize_rejected(self):
        with pytest.raises(FrameError):
            pack_frame(99)
        with pytest.raises(FrameError):
            pack_frame(
                framing.FRAME_DATA,
                payload=b"\0" * (framing.MAX_PAYLOAD_BYTES + 1),
            )

    def test_payload_corruption_detected(self):
        raw = bytearray(pack_frame(framing.FRAME_DATA, seq=3, payload=b"abcdef"))
        raw[framing.HEADER_SIZE + 2] ^= 0xFF
        with pytest.raises(FrameError, match="CRC"):
            unpack_frame(bytes(raw))

    def test_seq_corruption_detected(self):
        # seq lives at header offset 12; the CRC covers it.
        raw = bytearray(pack_frame(framing.FRAME_DATA, seq=3, payload=b"abc"))
        raw[12] ^= 0x01
        with pytest.raises(FrameError, match="CRC"):
            unpack_frame(bytes(raw))

    def test_truncation_detected(self):
        raw = pack_frame(framing.FRAME_DATA, payload=b"abcdef")
        with pytest.raises(FrameError):
            unpack_frame(raw[:-2])

    def test_data_payload_round_trip_bit_exact(self):
        packet = _packet(3)
        payload = framing.pack_data_payload(1.25, packet)
        ts, decoded = framing.unpack_data_payload(payload, packet.shape)
        assert ts == 1.25
        assert decoded.dtype == np.complex64
        np.testing.assert_array_equal(decoded, packet)

    def test_data_payload_shape_mismatch_rejected(self):
        payload = framing.pack_data_payload(0.0, _packet())
        with pytest.raises(FrameError):
            framing.unpack_data_payload(payload, (3, 2, 9))

    def test_update_round_trip(self):
        health = HealthReport(
            n_samples=10,
            n_chains=3,
            loss_rate=0.1,
            chain_liveness=np.array([1.0, 0.5, 0.0]),
            dead_chains=[2],
            usable_pairs=2,
            usable_groups=1,
            alignment_confidence=0.9,
            repairs={"net_gap_samples": 4},
            degraded=True,
            heading_unresolved=False,
        )
        update = MotionUpdate(
            times=np.array([0.0, 0.1, np.nan]),
            speed=np.array([0.5, np.nan, 0.25]),
            heading=np.array([30.0, -12.5, np.nan]),
            moving=np.array([True, False, True]),
            block_distance=0.125,
            total_distance=1.75,
            health=health,
        )
        decoded = framing.decode_update(framing.encode_update(update))
        assert updates_equal([update], [decoded])
        assert decoded.health is not None
        assert decoded.health.repairs == {"net_gap_samples": 4}
        assert decoded.health.degraded is True
        np.testing.assert_array_equal(
            decoded.health.chain_liveness, health.chain_liveness
        )

    def test_update_without_health(self):
        update = MotionUpdate(
            times=np.array([0.0]),
            speed=np.array([0.1]),
            heading=np.array([0.0]),
            moving=np.array([True]),
            block_distance=0.0,
            total_distance=0.0,
            health=None,
        )
        assert framing.decode_update(framing.encode_update(update)).health is None


class TestFrameDecoder:
    def test_incremental_feed(self):
        raw = b"".join(
            pack_frame(framing.FRAME_DATA, seq=k, payload=bytes([k]) * 5)
            for k in range(4)
        )
        decoder = FrameDecoder()
        seen = []
        for at in range(0, len(raw), 7):  # drip-feed in odd-sized chunks
            decoder.feed(raw[at : at + 7])
            seen.extend(decoder.frames())
        assert [f.seq for f in seen] == [0, 1, 2, 3]
        assert decoder.n_frames == 4
        assert decoder.n_crc_dropped == 0

    def test_resync_after_junk(self):
        good = pack_frame(framing.FRAME_DATA, seq=9, payload=b"ok")
        decoder = FrameDecoder()
        decoder.feed(b"\x00garbage-without-magic\xff" + good)
        frames = list(decoder.frames())
        assert [f.seq for f in frames] == [9]
        assert decoder.n_resyncs >= 1

    def test_corrupt_frame_dropped_next_recovered(self):
        bad = bytearray(pack_frame(framing.FRAME_DATA, seq=1, payload=b"abcd"))
        bad[framing.HEADER_SIZE] ^= 0x5A
        good = pack_frame(framing.FRAME_DATA, seq=2, payload=b"efgh")
        decoder = FrameDecoder()
        decoder.feed(bytes(bad) + good)
        frames = list(decoder.frames())
        assert [f.seq for f in frames] == [2]
        assert decoder.n_crc_dropped == 1

    def test_never_yields_wrong_data(self):
        # Flip every single byte of a frame in turn: decode must give
        # either the pristine frame (flip in a later frame's bytes) or
        # nothing from the damaged one — never altered content.
        payload = b"payload-bytes"
        raw = pack_frame(framing.FRAME_DATA, seq=5, payload=payload)
        for at in range(len(raw)):
            damaged = bytearray(raw)
            damaged[at] ^= 0x01
            decoder = FrameDecoder()
            decoder.feed(bytes(damaged))
            for frame in decoder.frames():
                assert frame.seq == 5
                assert frame.payload == payload


# -- sequence tracking ---------------------------------------------------------


class TestSeqTracker:
    def test_in_order(self):
        tracker = SeqTracker(window=4)
        out = []
        for seq in range(5):
            out.extend(tracker.admit(seq, float(seq), _packet()))
        assert [seq for seq, _, _ in out] == [0, 1, 2, 3, 4]
        assert tracker.ack == 4
        assert tracker.n_duplicates == 0
        assert tracker.n_gap_samples == 0

    def test_reorder_within_window(self):
        tracker = SeqTracker(window=4)
        out = list(tracker.admit(1, 1.0, _packet()))
        assert out == []
        out = tracker.admit(0, 0.0, _packet())
        assert [seq for seq, _, _ in out] == [0, 1]
        assert tracker.ack == 1

    def test_duplicates_suppressed(self):
        tracker = SeqTracker(window=4)
        tracker.admit(0, 0.0, _packet())
        assert tracker.admit(0, 0.0, _packet()) == []
        tracker.admit(2, 2.0, _packet())  # pending
        assert tracker.admit(2, 2.0, _packet()) == []
        assert tracker.n_duplicates == 2

    def test_gap_advance_past_window(self):
        tracker = SeqTracker(window=2)
        # seq 0 never arrives; 1..3 overflow the 2-sample window.
        assert tracker.admit(1, 1.0, _packet()) == []
        assert tracker.admit(2, 2.0, _packet()) == []
        out = tracker.admit(3, 3.0, _packet())
        assert [seq for seq, _, _ in out] == [1, 2, 3]
        assert tracker.n_gap_samples == 1
        assert tracker.ack == 3

    def test_flush_counts_gaps(self):
        tracker = SeqTracker(window=8)
        tracker.admit(0, 0.0, _packet())
        tracker.admit(3, 3.0, _packet())
        out = tracker.flush()
        assert [seq for seq, _, _ in out] == [3]
        assert tracker.n_gap_samples == 2  # seqs 1 and 2 lost
        assert tracker.ack == 3


# -- fault plans ---------------------------------------------------------------


class TestNetFaultPlan:
    def test_decisions_deterministic(self):
        plan = NetFaultPlan(seed=3, drop_fraction=0.3, corrupt_fraction=0.2)
        for seq in range(64):
            assert plan.drops(seq) == plan.drops(seq)
            assert plan.corrupts(seq) == plan.corrupts(seq)
        again = NetFaultPlan(seed=3, drop_fraction=0.3, corrupt_fraction=0.2)
        assert plan.delivered_seqs(200) == again.delivered_seqs(200)

    def test_swaps_only_even(self):
        plan = NetFaultPlan(reorder_fraction=1.0)
        assert all(plan.swaps_with_next(seq) for seq in range(0, 10, 2))
        assert not any(plan.swaps_with_next(seq) for seq in range(1, 10, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            NetFaultPlan(drop_fraction=1.5)
        with pytest.raises(ValueError):
            NetFaultPlan(delay_s=-1.0)
        with pytest.raises(ValueError):
            NetFaultPlan(disconnect_after=0)

    def test_is_clean(self):
        assert NetFaultPlan().is_clean
        assert not NetFaultPlan(drop_fraction=0.1).is_clean
        assert not NetFaultPlan(disconnect_after=5).is_clean

    def test_from_spec(self):
        plan = NetFaultPlan.from_spec(
            "drop=0.05,dup=0.1,reorder=0.2,corrupt=0.01,delay=0.02,"
            "disconnect=40,seed=7"
        )
        assert plan.drop_fraction == 0.05
        assert plan.duplicate_fraction == 0.1
        assert plan.reorder_fraction == 0.2
        assert plan.corrupt_fraction == 0.01
        assert plan.delay_fraction == 0.02
        assert plan.disconnect_after == 40
        assert plan.seed == 7
        assert NetFaultPlan.from_spec("") == NetFaultPlan()
        with pytest.raises(ValueError, match="unknown net fault spec key"):
            NetFaultPlan.from_spec("bogus=1")
        with pytest.raises(ValueError, match="malformed"):
            NetFaultPlan.from_spec("drop")

    def test_corrupt_bytes_header_intact(self):
        plan = NetFaultPlan(corrupt_fraction=1.0)
        raw = pack_frame(framing.FRAME_DATA, seq=4, payload=b"x" * 32)
        mangled = plan.corrupt_bytes(4, raw)
        assert mangled != raw
        assert mangled[: framing.HEADER_SIZE] == raw[: framing.HEADER_SIZE]
        with pytest.raises(FrameError, match="CRC"):
            unpack_frame(mangled)

    def test_expected_repairs_consistent(self):
        plan = NetFaultPlan(seed=1, drop_fraction=0.2, corrupt_fraction=0.1)
        n = 100
        repairs = plan.expected_repairs(n)
        delivered = plan.delivered_seqs(n)
        assert repairs["net_crc_dropped"] == sum(
            1 for s in range(n) if plan.corrupts(s)
        )
        high = max(delivered)
        assert repairs["net_gap_samples"] == sum(
            1 for s in range(high + 1) if s not in delivered
        )


class TestWireFaultInjector:
    def test_clean_passthrough(self):
        injector = WireFaultInjector(NetFaultPlan())
        frame = pack_frame(framing.FRAME_DATA, seq=0, payload=b"a")
        assert injector.admit(0, frame) == [(frame, 0.0)]

    def test_swap_held_and_released(self):
        injector = WireFaultInjector(NetFaultPlan(reorder_fraction=1.0))
        f0 = pack_frame(framing.FRAME_DATA, seq=0, payload=b"0")
        f1 = pack_frame(framing.FRAME_DATA, seq=1, payload=b"1")
        assert injector.admit(0, f0) == []  # held
        out = injector.admit(1, f1)
        assert [w for w, _ in out] == [f1, f0]
        assert injector.n_reordered == 1

    def test_flush_releases_end_of_stream_hold(self):
        injector = WireFaultInjector(NetFaultPlan(reorder_fraction=1.0))
        f0 = pack_frame(framing.FRAME_DATA, seq=0, payload=b"0")
        assert injector.admit(0, f0) == []
        assert [w for w, _ in injector.flush()] == [f0]
        assert injector.flush() == []

    def test_disconnect_fires_once(self):
        injector = WireFaultInjector(NetFaultPlan(disconnect_after=2))
        assert not injector.should_disconnect()
        assert injector.should_disconnect()
        assert not injector.should_disconnect()


# -- loopback integration ------------------------------------------------------


def _sum_net_repairs(updates):
    totals = {}
    for update in updates:
        if update.health is None:
            continue
        for key, value in update.health.repairs.items():
            if key.startswith("net_"):
                totals[key] = totals.get(key, 0) + int(value)
    return totals


class TestLoopback:
    def test_clean_run_bit_identical(self, net_trace):
        result = run_net_load([("rx00", net_trace)])
        assert result["baseline_match"] is True
        agg = result["aggregate"]
        assert agg["n_samples"] == net_trace.n_samples
        assert agg["n_delivered"] == net_trace.n_samples
        assert agg["reconnects"] == 0
        table = render_net_table(result)
        assert "bit-identical" in table

    def test_faulted_run_bit_identical_with_accounted_repairs(self, net_trace):
        plan = NetFaultPlan(
            seed=2,
            drop_fraction=0.05,
            duplicate_fraction=0.05,
            reorder_fraction=0.1,
            corrupt_fraction=0.03,
        )
        result = run_net_load([("rx00", net_trace)], fault_plan=plan)
        assert result["baseline_match"] is True
        expected = plan.expected_repairs(net_trace.n_samples)
        repairs = _sum_net_repairs(result["updates"]["rx00"])
        # Gaps are exact; corrupt/duplicate counts can only grow (resent
        # frames are re-faulted, wire dups of the same seq pile up).
        assert repairs.get("net_gap_samples", 0) == expected["net_gap_samples"]
        assert (
            repairs.get("net_crc_dropped", 0) >= expected["net_crc_dropped"]
        )
        assert (
            repairs.get("net_duplicate_dropped", 0)
            >= expected["net_duplicate_dropped"]
        )

    def test_reconnect_resume_bit_identical(self, net_trace):
        plan = NetFaultPlan(disconnect_after=max(2, net_trace.n_samples // 3))
        result = run_net_load(
            [("rx00", net_trace)],
            fault_plan=plan,
            client_config=NetClientConfig(backoff_base_s=0.01),
        )
        assert result["baseline_match"] is True
        assert result["aggregate"]["reconnects"] >= 1
        assert result["aggregate"]["recovery_s_max"] > 0.0
        # Resume must not replay acked samples: the estimator saw each
        # delivered seq exactly once, so the stream equals the clean one.
        clean = baseline_updates("rx00", net_trace)
        assert updates_equal(result["updates"]["rx00"], clean)

    def test_faults_plus_disconnect(self, net_trace):
        plan = NetFaultPlan(
            seed=5,
            drop_fraction=0.05,
            reorder_fraction=0.1,
            corrupt_fraction=0.02,
            disconnect_after=max(2, net_trace.n_samples // 2),
        )
        result = run_net_load(
            [("rx00", net_trace)],
            fault_plan=plan,
            client_config=NetClientConfig(backoff_base_s=0.01),
        )
        assert result["baseline_match"] is True
        assert result["aggregate"]["reconnects"] >= 1

    def test_multi_session(self, net_trace):
        result = run_net_load([("rx00", net_trace), ("rx01", net_trace)])
        assert result["baseline_match"] is True
        assert result["aggregate"]["n_sessions"] == 2
        assert len(result["sessions"]) == 2

    def test_backpressure_reject_reaches_wire_sessions(self, net_trace):
        # A tiny reject queue still yields a clean protocol run; the
        # serve-layer policy applies to network pushes like local ones.
        result = run_net_load(
            [("rx00", net_trace)],
            serve_config=ServeConfig(queue_capacity=8, backpressure="block"),
        )
        assert result["baseline_match"] is True

    def test_should_stop_ends_cleanly(self, net_trace):
        calls = {"n": 0}

        def stop_soon():
            calls["n"] += 1
            return calls["n"] > 10

        result = run_net_load(
            [("rx00", net_trace)], should_stop=stop_soon, check_baseline=True
        )
        assert result["stopped_early"] is True
        assert result["baseline_match"] is None  # skipped when stopped
        # The stream still finished with a BYE: final updates arrived.
        assert isinstance(result["updates"]["rx00"], list)

    def test_updates_resent_after_midstream_socket_loss(self, net_trace):
        # UPDATE frames written while the link dies must be redelivered
        # after reconnect (update seq + UACK resend), not lost: kill the
        # socket after the full send — with updates potentially still in
        # flight — and the resumed stream must match the clean baseline.
        server = NetServer(config=NetServerConfig(port=0, ack_every=4)).start()
        try:
            client = NetClient(
                server.config.host,
                server.port,
                "rx00",
                net_trace.array,
                net_trace.sampling_rate,
                sample_shape=tuple(net_trace.data.shape[1:]),
                carrier_wavelength=net_trace.carrier_wavelength,
                config=NetClientConfig(backoff_base_s=0.01),
            )
            client.connect()
            try:
                for k in range(net_trace.n_samples):
                    client.send(float(net_trace.times[k]), net_trace.data[k])
                client._sock.close()  # hard-kill without draining updates
                client._handle_disconnect()
                updates = client.finish()
            finally:
                client.close()
            assert client.n_reconnects >= 1
            assert updates_equal(updates, baseline_updates("rx00", net_trace))
        finally:
            server.close()

    def test_client_suppresses_resent_update_duplicates(self, net_trace):
        # A server resend after a lost UACK duplicates updates on the
        # wire; the client must keep exactly one copy per update seq.
        update = MotionUpdate(
            times=np.array([0.0, 0.5]),
            speed=np.array([0.25, 0.5]),
            heading=np.array([10.0, 20.0]),
            moving=np.array([True, True]),
            block_distance=0.5,
            total_distance=0.5,
            health=None,
        )
        client = NetClient(
            "127.0.0.1",
            0,
            "rx00",
            net_trace.array,
            net_trace.sampling_rate,
            sample_shape=tuple(net_trace.data.shape[1:]),
        )
        payload = framing.encode_update(update)
        for seq in (0, 1, 0, 1, 2):  # seqs 0 and 1 resent
            client._decoder.feed(
                pack_frame(framing.FRAME_UPDATE, 1, seq, payload)
            )
        client._process_frames()
        assert len(client.updates) == 3
        assert client._update_next == 3

    def test_reattach_requires_resume_token(self, net_trace):
        # Without the WELCOME's resume token, a second client claiming a
        # live session name is refused — and the live connection is not
        # superseded by the failed attempt.
        server = NetServer(config=NetServerConfig(port=0)).start()
        try:
            first = NetClient(
                server.config.host,
                server.port,
                "rx00",
                net_trace.array,
                net_trace.sampling_rate,
                sample_shape=tuple(net_trace.data.shape[1:]),
            )
            first.connect()
            try:
                first.send(float(net_trace.times[0]), net_trace.data[0])
                intruder = NetClient(
                    server.config.host,
                    server.port,
                    "rx00",
                    net_trace.array,
                    net_trace.sampling_rate,
                    sample_shape=tuple(net_trace.data.shape[1:]),
                    config=NetClientConfig(max_connect_attempts=1),
                )
                with pytest.raises(NetClientError, match="resume token"):
                    intruder.connect()
                intruder.close()
                # The live session is untouched: sending still works.
                first.send(float(net_trace.times[1]), net_trace.data[1])
                first.finish()
            finally:
                first.close()
        finally:
            server.close()

    def test_reattach_geometry_mismatch_refused(self, net_trace):
        # Even with the right token, a reattach declaring a different
        # sample shape is refused instead of having every DATA frame
        # silently dropped by the payload-length check.
        server = NetServer(config=NetServerConfig(port=0)).start()
        try:
            first = NetClient(
                server.config.host,
                server.port,
                "rx00",
                net_trace.array,
                net_trace.sampling_rate,
                sample_shape=tuple(net_trace.data.shape[1:]),
            )
            first.connect()
            try:
                for k in range(2):
                    first.send(float(net_trace.times[k]), net_trace.data[k])
                shape = tuple(net_trace.data.shape[1:])
                mismatched = NetClient(
                    server.config.host,
                    server.port,
                    "rx00",
                    net_trace.array,
                    net_trace.sampling_rate,
                    sample_shape=shape[:-1] + (shape[-1] + 1,),
                    config=NetClientConfig(max_connect_attempts=1),
                )
                mismatched._token = first._token  # token alone is not enough
                with pytest.raises(NetClientError, match="geometry mismatch"):
                    mismatched.connect()
                mismatched.close()
                first.finish()
            finally:
                first.close()
        finally:
            server.close()

    def test_socket_stays_blocking_with_write_budget(self, net_trace):
        # The connected socket must stay blocking (with io_timeout_s as
        # the write budget): a non-blocking socket would turn send-buffer
        # backpressure into spurious reconnect storms.
        server = NetServer(config=NetServerConfig(port=0)).start()
        try:
            client = NetClient(
                server.config.host,
                server.port,
                "rx00",
                net_trace.array,
                net_trace.sampling_rate,
                sample_shape=tuple(net_trace.data.shape[1:]),
                config=NetClientConfig(io_timeout_s=3.5),
            )
            client.connect()
            try:
                assert client._sock.gettimeout() == 3.5
                for k in range(2):
                    client.send(float(net_trace.times[k]), net_trace.data[k])
                assert client._sock.gettimeout() == 3.5
                client.finish()
            finally:
                client.close()
        finally:
            server.close()

    def test_explicit_server_client_resume_state(self, net_trace):
        server = NetServer(
            config=NetServerConfig(port=0, ack_every=8)
        ).start()
        try:
            client = NetClient(
                server.config.host,
                server.port,
                "rx00",
                net_trace.array,
                net_trace.sampling_rate,
                sample_shape=tuple(net_trace.data.shape[1:]),
                carrier_wavelength=net_trace.carrier_wavelength,
            )
            client.connect()
            try:
                for k in range(net_trace.n_samples):
                    client.send(float(net_trace.times[k]), net_trace.data[k])
                updates = client.finish()
            finally:
                client.close()
            assert updates_equal(updates, baseline_updates("rx00", net_trace))
            rows = server.session_stats()
            assert len(rows) == 1
            assert int(rows[0]["acked"]) == net_trace.n_samples - 1
        finally:
            server.close()

    def test_close_finishes_connection_tasks(self, net_trace, caplog):
        # A client still connected at close: its handler and heartbeat
        # tasks must end normally before the loop stops.  One left pending
        # is logged by the garbage collector ("Task was destroyed"); a
        # handler that ends cancelled is logged by asyncio's
        # client_connected_cb callback.  Either is an ERROR on "asyncio".
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            server = NetServer(config=NetServerConfig(port=0)).start()
            client = NetClient(
                server.config.host,
                server.port,
                "rx00",
                net_trace.array,
                net_trace.sampling_rate,
                sample_shape=tuple(net_trace.data.shape[1:]),
                carrier_wavelength=net_trace.carrier_wavelength,
            )
            try:
                client.connect()
            finally:
                server.close()
                client.close()
            del server
            gc.collect()
        errors = [
            r.getMessage() for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]
        assert errors == []

    def test_one_sample_stream(self, net_trace):
        # A stream of a single sample gets its (still) update at BYE, and
        # close() finishes a one-sample session that never said BYE.
        server = NetServer(config=NetServerConfig(port=0)).start()
        clients = [_client(server, name, net_trace) for name in ("rx00", "rx01")]
        try:
            for client in clients:
                client.connect()
                client.send(float(net_trace.times[0]), net_trace.data[0])
            updates = clients[0].finish()
            unfinished = server.manager.get("rx01")
            deadline = time.monotonic() + 5.0
            while unfinished.n_offered < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            server.close()
            for client in clients:
                client.close()
        assert len(updates) == 1
        assert updates[0].times.size == 1
        assert not updates[0].moving.any()
        assert updates[0].total_distance == 0.0
        assert unfinished.n_offered == 1
        assert unfinished.n_updates == 1

    def test_session_lane_released_at_bye(self, net_trace):
        # Each session's estimator thread lives while the session does,
        # and is released when it ends with BYE, not at server close.
        server = NetServer(config=NetServerConfig(port=0)).start()
        try:
            for k in range(3):
                client = _client(server, f"rx{k:02d}", net_trace)
                client.connect()
                try:
                    for j in range(20):
                        client.send(float(net_trace.times[j]), net_trace.data[j])
                    client.finish()
                finally:
                    client.close()
            deadline = time.monotonic() + 2.0
            while _ingest_threads() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert _ingest_threads() == []
        finally:
            server.close()

    def test_net_front_over_shard_fleet(self, net_trace):
        # The wire front-end over a 2-shard fleet, under wire faults and
        # a forced disconnect, still delivers the in-process stream.
        rim_config = RimConfig(max_lag=50)
        serve_config = ServeConfig(block_seconds=0.5)
        plan = NetFaultPlan.from_spec(
            "drop=0.05,dup=0.05,reorder=0.1,corrupt=0.03,disconnect=60"
        )
        with ShardRouter(
            2, rim_config=rim_config, serve_config=serve_config
        ) as router:
            server = NetServer(
                manager=router,
                config=NetServerConfig(port=0),
                rim_config=rim_config,
                serve_config=serve_config,
            ).start()
            try:
                result = run_net_load(
                    [("rx00", net_trace), ("rx01", net_trace)],
                    fault_plan=plan,
                    rim_config=rim_config,
                    serve_config=serve_config,
                    client_config=NetClientConfig(backoff_base_s=0.01),
                    host=server.config.host,
                    port=server.port,
                )
                # The fleet served the streams: an empty router must not be
                # swapped for an in-process manager.
                assert server.manager is router
                served = [str(row["session"]) for row in router.stats()]
            finally:
                server.close()
        assert served == ["rx00", "rx01"]
        assert result["baseline_match"] is True
        assert result["aggregate"]["reconnects"] >= 1

    def test_ttl_eviction_releases_finished_wire_sessions(self, net_trace):
        # A finished session keeps its stats row until the manager's TTL
        # evicts it; the next HELLO then drops its attachment, so nothing
        # keeps the evicted estimator alive.
        now = [0.0]
        manager = SessionManager(
            serve_config=ServeConfig(ttl_seconds=10.0), clock=lambda: now[0]
        )
        server = NetServer(manager=manager, config=NetServerConfig(port=0)).start()
        try:
            finished = []
            for k in range(3):
                client = _client(server, f"rx{k:02d}", net_trace)
                client.connect()
                try:
                    for j in range(200):  # 1 s at 200 Hz
                        client.send(float(net_trace.times[j]), net_trace.data[j])
                    client.finish()
                finally:
                    client.close()
                finished.append(weakref.ref(manager.get(f"rx{k:02d}")))
            rows = server.session_stats()
            assert [(r["session"], r["processed"]) for r in rows] == [
                ("rx00", 200), ("rx01", 200), ("rx02", 200),
            ]
            now[0] += 11.0
            client = _client(server, "rx03", net_trace)
            try:
                client.connect()
            finally:
                client.close()
            gc.collect()
            assert list(server._attachments) == ["rx03"]
            assert [ref() for ref in finished] == [None, None, None]
        finally:
            server.close()


def _client(server, name, trace):
    return NetClient(
        server.config.host,
        server.port,
        name,
        trace.array,
        trace.sampling_rate,
        sample_shape=tuple(trace.data.shape[1:]),
        carrier_wavelength=trace.carrier_wavelength,
    )


def test_net_serve_cli_serves_through_its_fleet(tmp_path, net_trace, capsys):
    # `net-serve --shards 2` runs on the main thread until SIGINT, which
    # a helper thread sends once its load is done.  Only the fleet
    # records under --record-dir, and the exit line reports the rate the
    # server served at.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    record_dir = tmp_path / "rec"
    loaded = []
    before = signal.getsignal(signal.SIGINT)

    def load():
        try:
            run_net_load(
                [("rx00", net_trace), ("rx01", net_trace)],
                client_config=NetClientConfig(
                    max_connect_attempts=60, backoff_cap_s=0.5
                ),
                host="127.0.0.1",
                port=port,
                check_baseline=False,
            )
            loaded.append(True)
        finally:
            # Interrupt net-serve's own handler only, never the runner's.
            deadline = time.monotonic() + 60.0
            while (
                signal.getsignal(signal.SIGINT) is before
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            if signal.getsignal(signal.SIGINT) is not before:
                os.kill(os.getpid(), signal.SIGINT)

    helper = threading.Thread(target=load, name="net-serve-load")
    helper.start()
    rc = main([
        "net-serve", "--port", str(port), "--shards", "2",
        "--record-dir", str(record_dir),
    ])
    helper.join(timeout=30.0)
    assert not helper.is_alive()
    assert rc == 0 and loaded == [True]
    out = capsys.readouterr().out
    rate = re.search(r"2 sessions: \d+ samples in [\d.]+ ms wall \((\d+) samples/s\)", out)
    assert rate is not None, out
    assert int(rate.group(1)) > 0
    assert "worst recovery" not in out
    stores = sorted(path.parent.name for path in record_dir.glob("*/manifest.json"))
    assert stores == ["rx00", "rx01"]


def _ingest_threads():
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("rim-net-ingest-")
    ]


# -- graceful shutdown ---------------------------------------------------------


class TestGracefulShutdown:
    def test_request_stop_and_stopper(self):
        stop = GracefulShutdown()
        assert not stop.triggered
        assert not stop.should_stop()
        stop.request_stop()
        assert stop.triggered
        assert stop.stopper()()

    def test_inert_off_main_thread(self):
        seen = {}

        def worker():
            with GracefulShutdown() as stop:
                seen["installed"] = stop._installed
                stop.request_stop()
                seen["stops"] = stop.should_stop()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == {"installed": False, "stops": True}

    def test_serve_sim_should_stop(self, fast_sampler, three_antenna):
        from repro.serve import run_serve_sim

        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 1.0)
        trace = fast_sampler.sample(traj, three_antenna)
        result = run_serve_sim(
            [("rx00", trace)], n_workers=1, should_stop=lambda: True
        )
        # Stopped before any push: sessions exist and drained cleanly.
        assert result["sessions"][0]["processed"] == 0

    def test_checkpoint_replay_should_stop(self, tmp_path, net_trace):
        from repro.store import CheckpointedReplayer, TraceReader, write_trace

        root = tmp_path / "store"
        write_trace(root, net_trace, chunk_samples=64)
        with TraceReader(root) as reader:
            replayer = CheckpointedReplayer(reader, block_seconds=1.0)
            calls = {"n": 0}

            def stop_after_two():
                calls["n"] += 1
                return calls["n"] > 2

            replayer.run(should_stop=stop_after_two)
            assert replayer.cursor == 2  # stopped at a chunk boundary
            assert not replayer.exhausted
            # Resumable: finishing the run matches an uninterrupted one.
            tail = replayer.run()
            assert replayer.exhausted
            assert isinstance(tail, list)
