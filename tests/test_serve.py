"""Tests for the concurrent multi-session serving layer (repro.serve)."""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.config import RimConfig
from repro.core.streaming import StreamingRim
from repro.motionsim.profiles import line_trajectory
from repro.serve import (
    PUSH_ACCEPTED,
    PUSH_BLOCKED,
    PUSH_REJECTED,
    PUSH_SHED_OLDEST,
    ServeConfig,
    SessionManager,
    render_serve_table,
    run_serve_sim,
)


@pytest.fixture(scope="module")
def serve_traces(fast_sampler, three_antenna):
    """Three short receiver traces with distinct start points/headings."""
    spots = [((10.0, 8.0), 0.0), ((12.0, 9.0), 20.0), ((14.0, 10.0), -15.0)]
    traces = []
    for (spot, heading) in spots:
        traj = line_trajectory(spot, heading, 0.5, 1.5)
        traces.append(fast_sampler.sample(traj, three_antenna))
    return traces


def _packet():
    return np.ones((3, 2, 8), dtype=np.complex64)


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServeConfig(backpressure="explode")
        with pytest.raises(ValueError):
            ServeConfig(ttl_seconds=0.0)
        with pytest.raises(ValueError):
            ServeConfig(block_seconds=-1.0)


class TestBackpressure:
    """Each shed policy: statuses, counters, and a bounded queue."""

    def _manager(self, policy, capacity=4, block_seconds=10.0):
        cfg = ServeConfig(
            queue_capacity=capacity,
            backpressure=policy,
            block_seconds=block_seconds,
        )
        return SessionManager(serve_config=cfg)

    def test_drop_oldest_sheds_and_bounds_queue(self, three_antenna):
        mgr = self._manager("drop_oldest")
        s = mgr.create("a", three_antenna, 100.0)
        statuses = [mgr.push("a", _packet(), k / 100.0) for k in range(10)]
        assert statuses[:4] == [PUSH_ACCEPTED] * 4
        assert statuses[4:] == [PUSH_SHED_OLDEST] * 6
        assert s.queue_depth == 4
        assert s.n_shed == 6
        assert s.n_rejected == 0

    def test_drop_oldest_keeps_newest_packets(self, three_antenna):
        mgr = self._manager("drop_oldest")
        s = mgr.create("a", three_antenna, 100.0)
        for k in range(10):
            mgr.push("a", _packet(), k / 100.0)
        queued_times = [t for _, t, _ in s._queue]
        assert queued_times == [k / 100.0 for k in range(6, 10)]

    def test_reject_refuses_when_full(self, three_antenna):
        mgr = self._manager("reject")
        s = mgr.create("a", three_antenna, 100.0)
        statuses = [mgr.push("a", _packet(), k / 100.0) for k in range(7)]
        assert statuses == [PUSH_ACCEPTED] * 4 + [PUSH_REJECTED] * 3
        assert s.n_rejected == 3
        assert s.queue_depth == 4
        # Rejected packets are gone: the queue still holds the first four.
        assert [t for _, t, _ in s._queue] == [k / 100.0 for k in range(4)]

    def test_block_drains_through_the_estimator(self, three_antenna):
        # Small blocks so the drain actually processes full blocks.
        mgr = self._manager("block", capacity=8, block_seconds=0.1)
        s = mgr.create("a", three_antenna, 100.0)
        statuses = [mgr.push("a", _packet(), k / 100.0) for k in range(12)]
        assert statuses[8] == PUSH_BLOCKED
        assert s.n_blocked >= 1
        assert s.n_processed >= 8
        assert s.queue_depth <= 8
        assert s.block_wait_s >= 0.0

    def test_shed_counters_reach_health(self, fast_sampler, three_antenna):
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 1.5)
        trace = fast_sampler.sample(traj, three_antenna)
        cfg = ServeConfig(
            queue_capacity=100, backpressure="drop_oldest", block_seconds=0.25
        )
        mgr = SessionManager(
            rim_config=RimConfig(max_lag=40), serve_config=cfg
        )
        mgr.create("rx", three_antenna, trace.sampling_rate,
                   carrier_wavelength=trace.carrier_wavelength)
        for k in range(trace.n_samples):
            mgr.push("rx", trace.data[k], float(trace.times[k]))
        updates = mgr.evict("rx")
        assert updates
        shed = sum(
            u.health.repairs.get("queue_shed_oldest", 0)
            for u in updates
            if u.health is not None
        )
        assert shed == trace.n_samples - 100


class TestSessionManager:
    def test_duplicate_create_rejected(self, three_antenna):
        mgr = SessionManager()
        mgr.create("a", three_antenna, 100.0)
        with pytest.raises(ValueError):
            mgr.create("a", three_antenna, 100.0)

    def test_unknown_session_raises(self, three_antenna):
        mgr = SessionManager()
        with pytest.raises(KeyError):
            mgr.push("ghost", _packet())
        with pytest.raises(KeyError):
            mgr.evict("ghost")

    def test_push_poll_matches_direct_stream(self, serve_traces):
        """The queue in front of the estimator must not change estimates."""
        trace = serve_traces[0]
        cfg = RimConfig(max_lag=50)
        direct = StreamingRim(
            trace.array, trace.sampling_rate, cfg, block_seconds=0.5,
            carrier_wavelength=trace.carrier_wavelength,
        )
        for k in range(trace.n_samples):
            direct.push(trace.data[k], float(trace.times[k]))
        direct.flush()

        mgr = SessionManager(rim_config=cfg, serve_config=ServeConfig(block_seconds=0.5))
        mgr.create("rx", trace.array, trace.sampling_rate,
                   carrier_wavelength=trace.carrier_wavelength)
        for k in range(trace.n_samples):
            mgr.push("rx", trace.data[k], float(trace.times[k]))
        updates = mgr.evict("rx")
        assert updates
        assert updates[-1].total_distance == direct.total_distance

    def test_ttl_eviction(self, three_antenna):
        now = [0.0]
        mgr = SessionManager(
            serve_config=ServeConfig(ttl_seconds=10.0),
            clock=lambda: now[0],
        )
        mgr.create("old", three_antenna, 100.0)
        mgr.create("fresh", three_antenna, 100.0)
        now[0] = 8.0
        mgr.push("fresh", _packet(), 0.0)  # touch one session
        now[0] = 15.0
        evicted = mgr.evict_idle()
        assert set(evicted) == {"old"}
        assert mgr.names() == ["fresh"]
        assert mgr.n_evicted == 1

    def test_create_runs_idle_eviction(self, three_antenna):
        now = [0.0]
        mgr = SessionManager(
            serve_config=ServeConfig(ttl_seconds=5.0),
            clock=lambda: now[0],
        )
        mgr.create("stale", three_antenna, 100.0)
        now[0] = 20.0
        mgr.create("new", three_antenna, 100.0)
        assert mgr.names() == ["new"]

    def test_serve_metrics_tagged_by_session(self, three_antenna):
        obs.reset()
        obs.enable()
        try:
            mgr = SessionManager(
                serve_config=ServeConfig(queue_capacity=2, backpressure="reject")
            )
            mgr.create("tagged", three_antenna, 100.0)
            for k in range(4):
                mgr.push("tagged", _packet(), k / 100.0)
            assert "serve.queue_depth{session=tagged}" in obs.METRICS
            assert "serve.rejected{session=tagged}" in obs.METRICS
            rejected = obs.METRICS.get("serve.rejected{session=tagged}")
            assert rejected.value == 2
        finally:
            obs.disable()
            obs.reset()


class TestServeSim:
    def test_aggregate_and_table(self, serve_traces):
        receivers = [(f"rx{k:02d}", t) for k, t in enumerate(serve_traces)]
        result = run_serve_sim(
            receivers,
            serve_config=ServeConfig(block_seconds=0.5),
            rim_config=RimConfig(max_lag=50),
            n_workers=2,
        )
        agg = result["aggregate"]
        assert agg["n_sessions"] == 3
        assert agg["total_samples"] == sum(t.n_samples for t in serve_traces)
        assert agg["sessions_per_second"] > 0
        assert agg["samples_per_second"] > 0
        assert len(result["sessions"]) == 3
        assert all(row["updates"] > 0 for row in result["sessions"])
        table = render_serve_table(result)
        for name, _ in receivers:
            assert name in table
        assert "sessions/s" in table

    def test_worker_count_never_changes_estimates(self, serve_traces):
        """Thread scheduling and sharding must never change per-session
        numbers, and every row counts the updates its replay delivered
        (polled and flushed)."""
        cfg = RimConfig(max_lag=50)
        receivers = [(f"rx{k:02d}", t) for k, t in enumerate(serve_traces)]
        per_session = []
        for kw in ({"n_workers": 1}, {"n_workers": 3}, {"shards": 2}):
            result = run_serve_sim(
                receivers,
                serve_config=ServeConfig(block_seconds=0.5),
                rim_config=cfg,
                **kw,
            )
            per_session.append(
                {row["session"]: (row["distance_m"], row["updates"], row["n_updates"])
                 for row in result["sessions"]}
            )
        direct = {}
        for name, trace in receivers:
            stream = StreamingRim(
                trace.array, trace.sampling_rate, cfg, block_seconds=0.5,
                carrier_wavelength=trace.carrier_wavelength,
            )
            updates = [
                stream.push(trace.data[k], float(trace.times[k]))
                for k in range(trace.n_samples)
            ] + [stream.flush()]
            n_updates = sum(u is not None for u in updates)
            direct[name] = (stream.total_distance, n_updates, n_updates)
        assert per_session[0] == per_session[1] == per_session[2] == direct

    def test_reject_policy_surfaces_in_aggregate(self, serve_traces):
        receivers = [("rx00", serve_traces[0])]
        result = run_serve_sim(
            receivers,
            serve_config=ServeConfig(
                backpressure="reject", queue_capacity=50, block_seconds=0.5
            ),
            rim_config=RimConfig(max_lag=50),
            n_workers=1,
        )
        assert result["aggregate"]["rejected"] > 0
        assert result["sessions"][0]["rejected"] > 0


class TestThreadedTracing:
    """Spans closed on worker threads must not corrupt each other."""

    def test_thread_local_span_stacks(self):
        obs.reset()
        obs.enable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            barrier = threading.Barrier(2, timeout=10)

            def work(tag):
                for _ in range(100):
                    with obs.span("shared"):
                        # Both threads hold a "shared" span open here and
                        # then close their spans at the same time.
                        barrier.wait()
                        with obs.span(f"own.{tag}"):
                            pass

            threads = [
                threading.Thread(target=work, args=(t,)) for t in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            shared = obs.METRICS.get("span.shared")
            assert shared.count == 200 and sum(shared.counts) == 200
            for tag in ("a", "b"):
                own = obs.METRICS.get(f"span.own.{tag}")
                assert own.count == 100 and sum(own.counts) == 100
            assert len(obs.METRICS) == 3
        finally:
            sys.setswitchinterval(interval)
            obs.disable()
            obs.reset()
