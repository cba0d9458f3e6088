"""Tests for the streaming (real-time) RIM estimator."""

import numpy as np
import pytest

from repro import obs
from repro.core.config import RimConfig
from repro.core.rim import Rim
from repro.core.streaming import StreamingRim
from repro.core.trrs import normalize_csi
from repro.motionsim.profiles import line_trajectory, still_trajectory
from repro.perf import BatchedBackend, StreamAlignmentCache


def _stream_trace(stream, trace):
    updates = []
    for k in range(trace.n_samples):
        update = stream.push(trace.data[k], trace.times[k])
        if update is not None:
            updates.append(update)
    final = stream.flush()
    if final is not None:
        updates.append(final)
    return updates


class TestStreamingRim:
    def test_constructor_validation(self, three_antenna):
        with pytest.raises(ValueError):
            StreamingRim(three_antenna, sampling_rate=0.0)
        with pytest.raises(ValueError):
            StreamingRim(three_antenna, sampling_rate=200.0, block_seconds=0.0)

    def test_packet_shape_validation(self, three_antenna):
        stream = StreamingRim(three_antenna, 200.0)
        with pytest.raises(ValueError):
            stream.push(np.zeros((5, 2, 8), dtype=np.complex64))

    def test_no_update_before_first_block(self, three_antenna, fast_sampler):
        traj = still_trajectory((10.0, 8.0), 0.2)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = StreamingRim(
            three_antenna, trace.sampling_rate, RimConfig(max_lag=40), block_seconds=1.0
        )
        assert stream.push(trace.data[0], trace.times[0]) is None

    def test_matches_offline_distance(self, three_antenna, fast_sampler):
        cfg = RimConfig(max_lag=50)
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 3.0)
        trace = fast_sampler.sample(traj, three_antenna)
        offline = Rim(cfg).process(trace).total_distance

        stream = StreamingRim(
            three_antenna,
            trace.sampling_rate,
            cfg,
            block_seconds=1.0,
            carrier_wavelength=trace.carrier_wavelength,
        )
        _stream_trace(stream, trace)
        assert stream.total_distance == pytest.approx(offline, abs=0.15)
        assert stream.total_distance == pytest.approx(traj.total_distance, abs=0.2)

    def test_memory_bounded(self, three_antenna, fast_sampler):
        cfg = RimConfig(max_lag=40)
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 3.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = StreamingRim(three_antenna, trace.sampling_rate, cfg, block_seconds=0.5)
        _stream_trace(stream, trace)
        assert stream.buffered_samples <= stream.context_samples + stream.block_samples

    def test_updates_cover_all_samples_once(self, three_antenna, fast_sampler):
        cfg = RimConfig(max_lag=40)
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = StreamingRim(three_antenna, trace.sampling_rate, cfg, block_seconds=0.5)
        updates = _stream_trace(stream, trace)
        all_times = np.concatenate([u.times for u in updates])
        np.testing.assert_allclose(all_times, trace.times)

    def test_total_distance_is_cumulative(self, three_antenna, fast_sampler):
        cfg = RimConfig(max_lag=40)
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = StreamingRim(three_antenna, trace.sampling_rate, cfg, block_seconds=0.5)
        updates = _stream_trace(stream, trace)
        running = 0.0
        for u in updates:
            running += u.block_distance
            assert u.total_distance == pytest.approx(running, abs=1e-9)

    def test_still_stream_reports_zero(self, three_antenna, fast_sampler):
        traj = still_trajectory((10.0, 8.0), 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = StreamingRim(
            three_antenna, trace.sampling_rate, RimConfig(max_lag=40), block_seconds=0.5
        )
        _stream_trace(stream, trace)
        assert stream.total_distance == pytest.approx(0.0, abs=1e-6)

    def test_flush_of_one_sample(self, three_antenna):
        stream = StreamingRim(three_antenna, 100.0, RimConfig(max_lag=40))
        stream.push(np.ones((3, 2, 8), dtype=np.complex64), 0.5)
        update = stream.flush()
        assert update is not None
        assert update.times.tolist() == [0.5]
        assert not update.moving.any()
        assert update.block_distance == 0.0
        assert update.health is not None and update.health.n_samples == 1
        assert stream.flush() is None

    def test_default_timestamps(self, three_antenna):
        stream = StreamingRim(three_antenna, 100.0, RimConfig(max_lag=40))
        packet = np.ones((3, 2, 8), dtype=np.complex64)
        for _ in range(5):
            stream.push(packet)
        assert stream._times[-1] == pytest.approx(4 / 100.0)


class TestStreamingGuard:
    """push() must reject/repair bad timestamps instead of corrupting blocks."""

    def _packet(self):
        return np.ones((3, 2, 8), dtype=np.complex64)

    def test_duplicate_timestamp_rejected(self, three_antenna):
        stream = StreamingRim(three_antenna, 100.0, RimConfig(max_lag=40))
        packet = self._packet()
        stream.push(packet, 0.00)
        stream.push(packet, 0.01)
        stream.push(packet, 0.01)  # duplicate: silently dropped
        stream.push(packet, 0.02)
        assert stream.buffered_samples == 3
        np.testing.assert_allclose(stream._times, [0.00, 0.01, 0.02])

    def test_nonmonotonic_timestamp_rejected(self, three_antenna):
        stream = StreamingRim(three_antenna, 100.0, RimConfig(max_lag=40))
        packet = self._packet()
        stream.push(packet, 0.00)
        stream.push(packet, 0.02)
        stream.push(packet, 0.01)  # late arrival: dropped
        assert stream.buffered_samples == 2
        assert np.all(np.diff(stream._times) > 0)

    def test_raise_policy_raises_on_duplicates(self, three_antenna):
        from repro.robustness import GuardError

        cfg = RimConfig(max_lag=40, guard_policy="raise")
        stream = StreamingRim(three_antenna, 100.0, cfg)
        packet = self._packet()
        stream.push(packet, 0.0)
        with pytest.raises(GuardError):
            stream.push(packet, 0.0)

    def test_off_policy_admits_everything(self, three_antenna):
        cfg = RimConfig(max_lag=40, guard_policy="off")
        stream = StreamingRim(three_antenna, 100.0, cfg)
        packet = self._packet()
        stream.push(packet, 0.0)
        stream.push(packet, 0.0)
        assert stream.buffered_samples == 2

    def test_updates_carry_health(self, three_antenna, fast_sampler):
        cfg = RimConfig(max_lag=50)
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = StreamingRim(
            three_antenna,
            trace.sampling_rate,
            cfg,
            block_seconds=0.5,
            carrier_wavelength=trace.carrier_wavelength,
        )
        updates = _stream_trace(stream, trace)
        assert updates
        for u in updates:
            assert u.health is not None
            assert u.health.n_chains == 3
            assert not u.health.degraded

    def test_repair_counters_reach_health(self, three_antenna, fast_sampler):
        cfg = RimConfig(max_lag=50)
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = StreamingRim(
            three_antenna,
            trace.sampling_rate,
            cfg,
            block_seconds=0.5,
            carrier_wavelength=trace.carrier_wavelength,
        )
        updates = []
        for k in range(trace.n_samples):
            update = stream.push(trace.data[k], trace.times[k])
            if update is not None:
                updates.append(update)
            if k % 25 == 0:  # replay every 25th packet as a duplicate
                assert stream.push(trace.data[k], trace.times[k]) is None
        final = stream.flush()
        if final is not None:
            updates.append(final)
        dupes = sum(
            u.health.repairs.get("duplicates_dropped", 0)
            for u in updates
            if u.health is not None
        )
        assert dupes == len([k for k in range(trace.n_samples) if k % 25 == 0])
        # Duplicates were rejected at the gate, so the estimate is untouched.
        all_times = np.concatenate([u.times for u in updates])
        np.testing.assert_allclose(all_times, trace.times)


class TestStreamAlignmentCache:
    """Cross-block TRRS row reuse and its invalidation discipline."""

    def _stream(self, three_antenna, trace, **cfg_kw):
        # Pin the batched backend (the default): only it implements row
        # seeding, so these tests must keep running it.
        cfg = RimConfig(max_lag=25, kernel_backend="batched", **cfg_kw)
        return StreamingRim(
            three_antenna,
            trace.sampling_rate,
            cfg,
            block_seconds=0.5,
            carrier_wavelength=trace.carrier_wavelength,
        )

    def test_clean_stream_seeds_rows(self, three_antenna, fast_sampler):
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = self._stream(three_antenna, trace)
        _stream_trace(stream, trace)
        cache = stream._align_cache
        assert cache is not None
        assert cache.seeded_cells > 0
        assert cache.invalidations == 0

    def test_stream_reuse_off_disables_cache(self, three_antenna, fast_sampler):
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = self._stream(three_antenna, trace, stream_reuse=False)
        _stream_trace(stream, trace)
        assert stream._align_cache is None

    def test_guard_repairs_invalidate_cache(self, three_antenna, fast_sampler):
        """Truncated packets trip the in-trace guard: no block may seed."""
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = self._stream(three_antenna, trace)
        for k in range(trace.n_samples):
            packet = np.array(trace.data[k])
            if k % 25 == 0:  # corrupt the tail tones of one chain
                packet[0, :, -5:] = np.nan
            stream.push(packet, trace.times[k])
        stream.flush()
        cache = stream._align_cache
        # Every block carried guard repairs, so nothing was ever captured.
        assert cache.seeded_cells == 0

    def test_gate_rejections_do_not_invalidate(self, three_antenna, fast_sampler):
        """Duplicates rejected at the push gate leave the buffer clean, so
        the cache must keep seeding — rejection is not an in-trace repair."""
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = self._stream(three_antenna, trace)
        for k in range(trace.n_samples):
            stream.push(trace.data[k], trace.times[k])
            if k % 25 == 0:
                assert stream.push(trace.data[k], trace.times[k]) is None
        stream.flush()
        assert stream._align_cache.seeded_cells > 0

    def test_clock_resample_clears_cache(self, three_antenna, fast_sampler):
        """Drifted timestamps force a resample, which drops seeded rows."""
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        trace = fast_sampler.sample(traj, three_antenna)
        stream = self._stream(three_antenna, trace)
        drifted = trace.times * 1.05  # 5% fast clock, way past guard_max_drift
        # Prime the cache with one clean block first.
        half = trace.n_samples // 2
        for k in range(half):
            stream.push(trace.data[k], trace.times[k])
        primed = stream._align_cache.seeded_cells
        for k in range(half, trace.n_samples):
            stream.push(trace.data[k], float(drifted[k]))
        stream.flush()
        assert stream._align_cache.invalidations >= 1
        # No new seeding happened after the clock went bad.
        assert stream._align_cache.seeded_cells == primed

    def test_seed_skips_reversed_keys(self, line_trace):
        """The store keeps one band per pair, keyed i < j; a checkpoint
        from before that may still hold a (j, i) entry, which must not
        be seeded."""
        store = BatchedBackend().make_store(normalize_csi(line_trace.data), 25)
        shape = (store.t, store.n_lags)
        cache = StreamAlignmentCache()
        cache.load_state_dict(
            {
                "offset": 0,
                "max_lag": 25,
                "seeded_cells": 0,
                "invalidations": 0,
                "entries": {
                    key: (np.zeros(shape), np.ones(shape, dtype=bool))
                    for key in ((0, 1), (1, 0))
                },
            }
        )
        cache.seed(store, 0)
        assert list(store.values) == [(0, 1)]


class TestFusedSanitize:
    """Ingest-fused sanitization: every sample is cleaned exactly once."""

    @pytest.fixture(autouse=True)
    def _obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _trace(self, three_antenna, fast_sampler):
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 2.0)
        return fast_sampler.sample(traj, three_antenna)

    def test_stream_sanitizes_once_per_sample(self, three_antenna, fast_sampler):
        """The sanitize work counter must equal the pushed sample count —
        blocks overlap, so a per-block sanitize would double-count."""
        trace = self._trace(three_antenna, fast_sampler)
        obs.enable()
        stream = StreamingRim(
            three_antenna,
            trace.sampling_rate,
            RimConfig(max_lag=25),
            block_seconds=0.5,
            carrier_wavelength=trace.carrier_wavelength,
        )
        _stream_trace(stream, trace)
        assert obs.METRICS.counter("sanitize.samples").value == trace.n_samples

    def test_batch_sanitizes_once_per_sample(self, three_antenna, fast_sampler):
        trace = self._trace(three_antenna, fast_sampler)
        obs.enable()
        Rim(RimConfig(max_lag=25)).process(trace)
        assert obs.METRICS.counter("sanitize.samples").value == trace.n_samples

    def test_resume_does_not_resanitize(self, three_antenna, fast_sampler):
        """Restoring a checkpointed stream reuses the serialized sanitized
        buffer instead of cleaning the retained window again."""
        trace = self._trace(three_antenna, fast_sampler)

        def build():
            return StreamingRim(
                three_antenna,
                trace.sampling_rate,
                RimConfig(max_lag=25),
                block_seconds=0.5,
                carrier_wavelength=trace.carrier_wavelength,
            )

        half = trace.n_samples // 2
        first = build()
        for k in range(half):
            first.push(trace.data[k], float(trace.times[k]))
        state = first.state_dict()

        obs.enable()
        second = build()
        second.load_state_dict(state)
        for k in range(half, trace.n_samples):
            second.push(trace.data[k], float(trace.times[k]))
        second.flush()
        assert (
            obs.METRICS.counter("sanitize.samples").value
            == trace.n_samples - half
        )
