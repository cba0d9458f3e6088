"""Tests for the sharded session fleet (repro.shard).

Locks down the PR-9 acceptance criteria:

* the consistent-hash ring is deterministic across processes and stable
  under resize (a failover remaps ~1/N sessions, not all of them);
* the pipe codec round-trips bit-exactly and refuses corruption;
* a sharded fleet produces exactly the update streams and stats a
  single in-process :class:`~repro.serve.session.SessionManager` does;
* a SIGKILLed shard's sessions resume **bit-identically** on a
  survivor from their durable checkpoints;
* worker-process metrics aggregate into the router registry without
  double counting;
* the shard-scaling floor (``benchmarks/shard_scaling.py``) gates only
  the rows the host has the cpus for.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.config import RimConfig
from repro.core.streaming import StreamingRim
from repro.motionsim.profiles import line_trajectory
from repro.serve.session import ServeConfig, SessionManager
from repro.serve.simulate import render_serve_table, run_serve_sim
from repro.shard import HashRing, ShardError, ShardProtocolError, ShardRouter
from repro.shard import messages as msg


RIM_CFG = RimConfig(max_lag=50)
SERVE_CFG = ServeConfig(block_seconds=0.5)


@pytest.fixture(scope="module")
def shard_traces(fast_sampler, three_antenna):
    """Four short receiver traces with distinct starts and headings."""
    spots = [
        ((10.0, 8.0), 0.0),
        ((12.0, 9.0), 20.0),
        ((14.0, 10.0), -15.0),
        ((11.0, 11.0), 45.0),
    ]
    return [
        (f"rx{k:02d}", fast_sampler.sample(
            line_trajectory(spot, heading, 0.5, 1.0), three_antenna))
        for k, (spot, heading) in enumerate(spots)
    ]


def _reference_updates(trace, block_seconds=SERVE_CFG.block_seconds):
    """Uninterrupted single-stream replay: the bit-identity oracle."""
    stream = StreamingRim(
        trace.array,
        trace.sampling_rate,
        RIM_CFG,
        block_seconds=block_seconds,
        carrier_wavelength=trace.carrier_wavelength,
    )
    updates = []
    for k in range(trace.n_samples):
        update = stream.push(trace.data[k], float(trace.times[k]))
        if update is not None:
            updates.append(update)
    final = stream.flush()
    if final is not None:
        updates.append(final)
    return updates


def _same_updates(got, want):
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if not (
            np.array_equal(a.times, b.times)
            and np.array_equal(a.speed, b.speed)
            and np.array_equal(a.heading, b.heading, equal_nan=True)
            and a.total_distance == b.total_distance
        ):
            return False
    return True


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"session-{k}" for k in range(200)]
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])  # insertion order is irrelevant
        assert a.table(keys) == b.table(keys)

    def test_resize_remaps_a_bounded_fraction(self):
        keys = [f"session-{k}" for k in range(500)]
        small = HashRing(["s0", "s1"])
        grown = HashRing(["s0", "s1", "s2"])
        before, after = small.table(keys), grown.table(keys)
        moved = sum(1 for key in keys if before[key] != after[key])
        # Ideal is 1/3; allow generous slack for vnode unevenness but
        # fail hard on a full reshuffle (the failure mode the ring
        # exists to prevent).
        assert 0 < moved < len(keys) * 0.55
        # Every moved key landed on the new node, never between old ones.
        for key in keys:
            if before[key] != after[key]:
                assert after[key] == "s2"

    def test_preference_order(self):
        ring = HashRing(["s0", "s1", "s2"])
        order = list(ring.preference("some-session"))
        assert sorted(order) == ["s0", "s1", "s2"]
        assert order[0] == ring.assign("some-session")

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([], vnodes=0)
        ring = HashRing(["s0"])
        with pytest.raises(ValueError):
            ring.add("s0")
        with pytest.raises(ValueError):
            ring.remove("ghost")
        ring.remove("s0")
        with pytest.raises(ValueError):
            ring.assign("anything")


class TestMessages:
    def test_json_roundtrip(self):
        payload = {"a": 1, "rates": [1.5, 2.5], "name": "rx00"}
        buf = msg.pack_message(
            msg.MSG_CREATE, "rx00", 7, msg.pack_json(payload)
        )
        out = msg.unpack_message(buf)
        assert out.msg_type == msg.MSG_CREATE
        assert out.name == "rx00"
        assert out.seq == 7
        assert out.json() == payload

    def test_data_roundtrip_bit_exact(self):
        packet = (np.arange(12, dtype=np.complex64) * (1 + 2j)).reshape(3, 4)
        buf = msg.pack_data(0.125, packet)
        timestamp, out = msg.unpack_data(buf)
        assert timestamp == 0.125
        assert out.dtype == packet.dtype
        assert np.array_equal(out, packet)

    def test_data_roundtrip_no_timestamp(self):
        packet = np.ones(5, dtype=np.float64)
        timestamp, out = msg.unpack_data(msg.pack_data(None, packet))
        assert timestamp is None
        assert np.array_equal(out, packet)

    def test_corrupted_payload_rejected(self):
        buf = bytearray(
            msg.pack_message(msg.MSG_DATA, "rx", 1, b"payload-bytes")
        )
        buf[-1] ^= 0xFF
        with pytest.raises(ShardProtocolError):
            msg.unpack_message(bytes(buf))

    def test_truncated_and_bad_magic_rejected(self):
        buf = msg.pack_message(msg.MSG_PING, "", 1, b"")
        with pytest.raises(ShardProtocolError):
            msg.unpack_message(buf[: len(buf) // 2])
        with pytest.raises(ShardProtocolError):
            msg.unpack_message(b"XXXX" + buf[4:])

    def test_fire_and_forget_classification(self):
        assert msg.is_fire_and_forget(msg.MSG_DATA)
        assert msg.is_fire_and_forget(msg.MSG_NOTE)
        assert not msg.is_fire_and_forget(msg.MSG_PING)
        assert not msg.is_fire_and_forget(msg.MSG_POLL)


class TestFleet:
    def test_sharded_matches_single_manager(self, shard_traces):
        """Same sessions, same bits, whether through 1 manager or 2 shards."""
        manager = SessionManager(rim_config=RIM_CFG, serve_config=SERVE_CFG)
        single = {}
        for name, trace in shard_traces:
            session = manager.create(
                name, trace.array, trace.sampling_rate,
                carrier_wavelength=trace.carrier_wavelength,
            )
            for k in range(trace.n_samples):
                manager.push(name, trace.data[k], float(trace.times[k]))
            single[name] = session.flush()
        single_stats = {row["session"]: row for row in manager.stats()}

        router = ShardRouter(2, rim_config=RIM_CFG, serve_config=SERVE_CFG)
        try:
            router.wait_ready()
            for name, trace in shard_traces:
                router.create(
                    name, trace.array, trace.sampling_rate,
                    carrier_wavelength=trace.carrier_wavelength,
                )
            placement = router.fleet_stats()["sessions_per_shard"]
            # Bounded-load placement: 4 sessions over 2 shards is 2/2,
            # never 4/0 (which would void the scaling gate).
            assert sorted(placement.values()) == [2, 2]
            sharded = {}
            for name, trace in shard_traces:
                for k in range(trace.n_samples):
                    router.push(name, trace.data[k], float(trace.times[k]))
                sharded[name] = router.flush(name)
            shard_stats = {row["session"]: row for row in router.stats()}
        finally:
            router.close()

        for name, _ in shard_traces:
            assert _same_updates(sharded[name], single[name]), name
            for key in ("offered", "processed", "updates",
                        "degraded_blocks", "distance_m"):
                assert shard_stats[name][key] == single_stats[name][key], (
                    name, key
                )

    def test_kill_failover_resumes_bit_identically(self, shard_traces, tmp_path):
        """A SIGKILLed shard's sessions continue on a survivor, bit-exact."""
        router = ShardRouter(
            2, rim_config=RIM_CFG, serve_config=SERVE_CFG,
            record_dir=tmp_path / "fleet",
        )
        try:
            router.wait_ready()
            for name, trace in shard_traces:
                router.create(
                    name, trace.array, trace.sampling_rate,
                    carrier_wavelength=trace.carrier_wavelength,
                )
            victim_shard = router.stats()[0]["shard"]
            delivered = {name: [] for name, _ in shard_traces}
            for name, trace in shard_traces:
                for k in range(trace.n_samples // 2):
                    router.push(name, trace.data[k], float(trace.times[k]))
                # Deliver some updates before the kill: the resumed
                # session must skip exactly these, not replay them.
                delivered[name].extend(router.poll(name))
            router.sync()
            index = int(victim_shard.rsplit("-", 1)[1])
            router.kill_shard(index, failover=True)

            fleet = router.fleet_stats()
            assert fleet["failovers"] >= 1
            assert victim_shard not in fleet["alive"]
            assert all(
                count == 0 or shard != victim_shard
                for shard, count in fleet["sessions_per_shard"].items()
            )

            for name, trace in shard_traces:
                for k in range(trace.n_samples // 2, trace.n_samples):
                    router.push(name, trace.data[k], float(trace.times[k]))
            finals = router.flush_all()
            for name, _ in shard_traces:
                delivered[name].extend(finals.get(name, []))
        finally:
            router.close()

        for name, trace in shard_traces:
            assert _same_updates(delivered[name], _reference_updates(trace)), name

    def test_metrics_aggregate_without_double_counting(self, shard_traces):
        """Worker counters fold into the router registry exactly once."""
        name, trace = shard_traces[0]
        obs.enable()
        obs.reset()
        try:
            router = ShardRouter(
                2, rim_config=RIM_CFG, serve_config=SERVE_CFG
            )
            try:
                router.wait_ready()
                router.create(
                    name, trace.array, trace.sampling_rate,
                    carrier_wavelength=trace.carrier_wavelength,
                )
                for k in range(trace.n_samples):
                    router.push(name, trace.data[k], float(trace.times[k]))
                router.flush(name)
                router.refresh_metrics()
                counter = obs.METRICS.counter(
                    f"serve.offered{{session={name}}}"
                )
                first = counter.value
                router.refresh_metrics()  # idempotent: deltas, not sums
                second = counter.value
            finally:
                router.close()
            # The worker offered every sample exactly once, and pulling
            # a second snapshot must not double-count it.
            assert first == trace.n_samples
            assert second == trace.n_samples
        finally:
            obs.disable()
            obs.reset()

    def test_worker_stage_timings_reach_the_router(self, shard_traces):
        """Worker ``span.*`` histograms fold into the router registry."""
        obs.reset()
        obs.enable()
        try:
            router = ShardRouter(2, rim_config=RIM_CFG, serve_config=SERVE_CFG)
            try:
                router.wait_ready()
                for name, trace in shard_traces:
                    router.create(
                        name, trace.array, trace.sampling_rate,
                        carrier_wavelength=trace.carrier_wavelength,
                    )
                for name, trace in shard_traces:
                    for k in range(trace.n_samples):
                        router.push(name, trace.data[k], float(trace.times[k]))
                router.flush_all()
                rows = router.stats()
                router.refresh_metrics()
            finally:
                router.close()
            updates = sum(int(row["updates"]) for row in rows)
            assert {row["shard"] for row in rows} == {"shard-0", "shard-1"}
            assert updates > 0
            block = obs.METRICS.get("span.stream.block")
            assert block is not None and block.count == updates
            process = obs.METRICS.get("span.rim.process")
            assert process is not None and 0 < process.count <= updates
        finally:
            obs.disable()
            obs.reset()

    def test_wait_ready_raises_shard_error_for_a_dead_worker(self):
        router = ShardRouter(1, rim_config=RIM_CFG, serve_config=SERVE_CFG)
        try:
            router.kill_shard(0, failover=False)
            with pytest.raises(ShardError, match="never came up"):
                router.wait_ready()
        finally:
            router.close()

    def test_router_error_surface(self, shard_traces):
        name, trace = shard_traces[0]
        router = ShardRouter(2, rim_config=RIM_CFG, serve_config=SERVE_CFG)
        try:
            router.wait_ready()
            with pytest.raises(KeyError):
                router.poll("ghost")
            router.create(
                name, trace.array, trace.sampling_rate,
                carrier_wavelength=trace.carrier_wavelength,
            )
            with pytest.raises(ValueError):
                router.create(
                    name, trace.array, trace.sampling_rate,
                    carrier_wavelength=trace.carrier_wavelength,
                )
            with pytest.raises(ShardError):
                router.create(
                    "other", trace.array, trace.sampling_rate,
                    rim_config=RimConfig(max_lag=10),
                    carrier_wavelength=trace.carrier_wavelength,
                )
            assert name in router
            assert len(router) == 1
        finally:
            router.close()
        with pytest.raises(ShardError):
            router.poll(name)

    def test_run_serve_sim_sharded_aggregate(self, shard_traces):
        result = run_serve_sim(
            shard_traces[:2], serve_config=SERVE_CFG, rim_config=RIM_CFG, shards=2
        )
        agg = result["aggregate"]
        assert agg["n_sessions"] == 2
        assert agg["shards"] == 2
        assert agg["alive_shards"] == 2
        assert agg["failovers"] == 0
        assert agg["sessions_per_second"] > 0
        assert sum(agg["sessions_per_shard"].values()) == 2
        assert len(result["sessions"]) == 2
        for row in result["sessions"]:
            assert row["updates"] > 0
            assert row["shard"].startswith("shard-")
        table = render_serve_table(result)
        assert "2 sessions over 2 shards (2 alive, 0 failovers)" in table
        assert "placement: " in table
        for row in result["sessions"]:
            assert row["shard"] in table


@pytest.fixture(scope="module")
def shard_scaling():
    """The scaling script, imported by path (``benchmarks/`` is no package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "shard_scaling.py"
    spec = importlib.util.spec_from_file_location("shard_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScalingGate:
    def test_fails_gated_rows_below_floor(self, shard_scaling):
        # 1 -> 2 shards: 1.8x (0.90x-linear); 1 -> 4 shards: 2.4x (0.60x).
        rates = {1: 10.0, 2: 18.0, 4: 24.0}
        rows = shard_scaling.scaling_gate(rates, n_cpus=4)
        assert [(s, v) for s, _, _, v in rows] == [
            (1, "baseline"), (2, "ok"), (4, "FAIL"),
        ]
        assert [e for _, _, e, _ in rows] == pytest.approx([1.0, 0.9, 0.6])
        floor = shard_scaling.MIN_LINEAR_EFFICIENCY
        rows = shard_scaling.scaling_gate({1: 10.0, 2: 20.0 * floor}, n_cpus=2)
        assert rows[1][3] == "ok"

    def test_counts_usable_cpus_from_affinity_mask(
        self, shard_scaling, monkeypatch
    ):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        assert shard_scaling.usable_cpus() == 1
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert shard_scaling.usable_cpus() == 2

    def test_rows_wider_than_usable_cpus_are_not_gated(
        self, shard_scaling, monkeypatch
    ):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        n_cpus = shard_scaling.usable_cpus()
        assert n_cpus == 2
        rows = shard_scaling.scaling_gate({1: 10.0, 2: 5.0, 4: 4.0}, n_cpus)
        assert [v for *_, v in rows] == ["baseline", "FAIL", "not gated"]
