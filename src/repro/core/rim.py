"""The end-to-end RIM estimator (§4.4, "Putting It All Together").

``Rim.process`` consumes a :class:`~repro.channel.sampler.CsiTrace` and
produces a :class:`RimResult` with per-sample speed, heading, cumulative
distance, detected in-place rotations, and a dead-reckoned trajectory.

Pipeline:

1. sanitize the CSI (linear phase, §3.2);
2. detect movement from the self-TRRS of one antenna (§4.1);
3. pre-detect candidate pair groups with a cheap strided screen (§4.3);
4. build (group-averaged, §4.2) alignment matrices for the candidates and
   track their peaks with dynamic programming (§4.2);
5. post-check the tracked paths and select the aligned group per sample;
6. if the array is circular, check the ring-adjacent pairs for concurrent
   alignment ⇒ in-place rotation (§4.4(3));
7. turn lags into speed/heading/rotation and integrate.

Headings are reported in the *device* (array) frame: RIM is an inside-out
relative tracker, so world-frame output needs the initial array orientation
— exactly like the indoor-tracking deployments of §6.3.3.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import obs
from repro.arrays.pairs import AntennaPair, adjacent_ring_pairs, parallel_groups
from repro.channel.sampler import CsiTrace
from repro.core.alignment import average_matrices
from repro.core.config import (
    MIN_INITIAL_DISTANCE_COMPENSATION,
    MOVEMENT_LAG_SECONDS,
    PRE_DETECT_MIN_SCORE,
    REFINE_SUBSAMPLE,
    ROTATION_MIN_GROUPS,
    ROTATION_PRE_SCORE,
    ROTATION_QUALITY,
    SELECTION_MIN_QUALITY,
    RimConfig,
)
from repro.core.motion import (
    MotionEstimate,
    RotationEvent,
    integrate_rotation,
    smooth_speed,
    speed_from_lags,
)
from repro.core.movement import MovementResult, detect_movement, self_trrs_indicator
from repro.core.pairs import (
    GroupTrack,
    path_quality,
    peak_prominence_score,
    post_check,
    select_group_per_sample,
)
from repro.core.sanitize import sanitize_trace
from repro.core.trrs import normalize_csi
from repro.perf.kernels import BatchedBackend, KernelBackend, ReferenceBackend
from repro.robustness.guard import guard_trace
from repro.robustness.health import HealthReport, apply_degradation, build_health

logger = logging.getLogger(__name__)


@dataclass
class RimResult:
    """Everything RIM estimated from one CSI trace."""

    motion: MotionEstimate
    movement: MovementResult
    group_tracks: List[GroupTrack]
    ring_tracks: List[GroupTrack] = field(default_factory=list)
    health: Optional[HealthReport] = None

    @property
    def total_distance(self) -> float:
        """Integrated moving distance, meters (§4.4(1))."""
        return self.motion.total_distance

    @property
    def total_rotation(self) -> float:
        """Net detected in-place rotation, radians (§4.4(3))."""
        return self.motion.total_rotation

    def cumulative_distance(self) -> np.ndarray:
        return self.motion.cumulative_distance()

    def headings(self) -> np.ndarray:
        """(T,) device-frame heading, radians (NaN where unresolved)."""
        return self.motion.heading

    def trajectory(self, start=(0.0, 0.0), orientation: float = 0.0) -> np.ndarray:
        """Dead-reckoned world positions given the initial array orientation."""
        shifted = MotionEstimate(
            times=self.motion.times,
            moving=self.motion.moving,
            speed=self.motion.speed,
            heading=self.motion.heading + orientation,
            group_choice=self.motion.group_choice,
            rotations=self.motion.rotations,
        )
        return shifted.positions(start=start)


class Rim:
    """RF-based inertial measurement from CSI traces."""

    def __init__(self, config: Optional[RimConfig] = None):
        self.config = config or RimConfig()
        # The reference oracle always computes in float64; only the
        # batched kernels honour the opt-in precision.
        self._kernel: KernelBackend
        if self.config.kernel_backend == "reference":
            self._kernel = ReferenceBackend()
        else:
            self._kernel = BatchedBackend(dtype=self.config.kernel_dtype)

    @property
    def kernel_backend(self) -> str:
        """Name of the kernel backend serving this pipeline (see ``repro.perf``)."""
        return self._kernel.name

    def process(
        self,
        trace: CsiTrace,
        *,
        stream_cache=None,
        stream_offset: int = 0,
        presanitized: Optional[np.ndarray] = None,
        nominal_rate: Optional[float] = None,
    ) -> RimResult:
        """Run the full RIM pipeline on a CSI trace.

        Input first passes the robustness guard (``config.guard_policy``):
        malformed packets are repaired or dropped, dead RX chains are
        detected and their pairs masked out of the alignment vote, and a
        :class:`~repro.robustness.health.HealthReport` documenting all of
        it is attached to the result.

        When instrumentation is on (:func:`repro.obs.enable`) the call and
        each of its stages observe their wall time into ``span.rim.*``
        histograms of ``obs.METRICS``.  Tracing is observational only: it
        never changes an output bit.

        Args:
            trace: The CSI trace to process.
            stream_cache: Cross-block TRRS row cache managed by
                :class:`~repro.core.streaming.StreamingRim`
                (:mod:`repro.perf.streamcache`); None for batch use.
            stream_offset: Global sample index of ``trace``'s first row
                within the stream the cache is keyed on.
            presanitized: Ingest-fused sanitize: the caller's per-sample
                sanitized copy of ``trace.data`` (same shape/dtype).  Used
                instead of the in-pipeline ``sanitize_trace`` pass when the
                stream-safety gate holds (no guard repairs this call, no
                loss interpolation pending — the same condition that
                validates the cross-block TRRS cache); silently ignored
                otherwise, so correctness never depends on it.
            nominal_rate: Packet rate the guard judges clock drift
                against; None takes the trace's own mean rate.  A stream
                passes its nominal rate, because samples its block never
                received lower the block's mean rate without any drift.
        """
        with obs.span("rim.process"):
            result = self._run_pipeline(
                trace,
                stream_cache=stream_cache,
                stream_offset=stream_offset,
                presanitized=presanitized,
                nominal_rate=nominal_rate,
            )
        obs.add("rim.samples_processed", trace.n_samples)
        return result

    def _run_pipeline(
        self,
        trace: CsiTrace,
        stream_cache=None,
        stream_offset: int = 0,
        presanitized: Optional[np.ndarray] = None,
        nominal_rate: Optional[float] = None,
    ) -> RimResult:
        cfg = self.config
        guard_report = None
        if cfg.guard_policy != "off":
            with obs.span("rim.guard"):
                trace, guard_report = guard_trace(
                    trace,
                    policy=cfg.guard_policy,
                    min_chain_liveness=cfg.guard_min_liveness,
                    max_clock_drift=cfg.guard_max_drift,
                    nominal_rate=nominal_rate,
                )
            repairs = guard_report.repairs()
            if repairs or guard_report.dead_chains:
                logger.info(
                    "input guard: repairs=%s dead_chains=%s",
                    repairs,
                    guard_report.dead_chains,
                )
        dead = set(guard_report.dead_chains) if guard_report else set()

        data = trace.data
        # One safety evaluation governs both per-sample reuse mechanisms:
        # the ingest-fused sanitized view and the cross-block TRRS cache.
        # Both demand that this call's samples are bit-identical to what a
        # per-sample pass over the raw stream would have seen.
        stream_safe = (
            self._stream_cache_safe(data, guard_report)
            if (stream_cache is not None or presanitized is not None)
            else False
        )
        fused = (
            presanitized is not None
            and cfg.sanitize
            and stream_safe
            and presanitized.shape == data.shape
        )
        with obs.span("rim.sanitize"):
            if fused:
                # Every sample was sanitized exactly once at ingest (and
                # counted there in ``sanitize.samples``).
                data = presanitized
            else:
                if cfg.interpolate_loss and cfg.interpolation_max_gap > 0:
                    from repro.channel.interpolation import interpolate_lost_packets

                    data = interpolate_lost_packets(
                        data, max_gap=cfg.interpolation_max_gap
                    )
                if cfg.sanitize:
                    data = sanitize_trace(data)
                    obs.add("sanitize.samples", data.shape[0])
        fs = trace.sampling_rate

        groups = parallel_groups(trace.array)
        groups = [
            [p for p in g if p.i not in dead and p.j not in dead] for g in groups
        ]
        groups = [g for g in groups if g]
        usable_pairs = sum(len(g) for g in groups)

        with obs.span("rim.movement_detect"):
            movement = self._detect_movement(data, fs, dead)
        moving = movement.moving

        if not moving.any() or not groups:
            logger.debug(
                "pipeline short-circuit: moving=%s usable_groups=%d",
                bool(moving.any()),
                len(groups),
            )
            if stream_cache is not None:
                # No matrices were computed this block, so there is nothing
                # fresh to carry forward; stale rows must not outlive it.
                stream_cache.clear()
            motion = MotionEstimate(
                times=trace.times,
                moving=moving,
                speed=np.zeros(trace.n_samples),
                heading=np.full(trace.n_samples, np.nan),
                group_choice=np.full(trace.n_samples, -1, dtype=np.int64),
            )
            health = build_health(
                n_samples=trace.n_samples,
                n_chains=trace.n_rx,
                guard_report=guard_report,
                usable_pairs=usable_pairs,
                usable_groups=len(groups),
            )
            motion = apply_degradation(motion, health, cfg.health_min_pairs)
            return RimResult(
                motion=motion, movement=movement, group_tracks=[], health=health
            )

        # Only the alignment stages read the normalized CSI and the
        # per-trace kernel store, so a still block builds neither.  In
        # streaming the store is seeded with the previous block's TRRS
        # rows when the retained samples are guaranteed unchanged (see
        # _stream_cache_safe).
        with obs.span("rim.normalize"):
            store = self._kernel.make_store(normalize_csi(data), cfg.max_lag)
        cache_ok = False
        if stream_cache is not None:
            cache_ok = stream_safe
            if cache_ok:
                seeded_before = stream_cache.seeded_cells
                self._kernel.seed_store(store, stream_cache, stream_offset)
                obs.add(
                    "stream.cache_seeded_cells",
                    stream_cache.seeded_cells - seeded_before,
                )
            else:
                stream_cache.clear()

        with obs.span("rim.pre_screen"):
            candidates = self._pre_detect(store, groups, moving, fs)
        with obs.span("rim.track_groups"):
            tracks = self._track_groups(store, candidates, fs)
            tracks = self._post_filter(tracks, moving)

        with obs.span("rim.rotation_detect"):
            ring_tracks, rotations = self._detect_rotation(
                trace, store, moving, fs, dead
            )

        if stream_cache is not None and cache_ok:
            self._kernel.export_store(store, stream_cache, stream_offset)

        with obs.span("rim.integrate"):
            motion = self._reckon(
                trace,
                tracks,
                moving,
                rotations,
                fs,
                blind=self._blind_mask(data, dead),
            )
        health = build_health(
            n_samples=trace.n_samples,
            n_chains=trace.n_rx,
            guard_report=guard_report,
            usable_pairs=usable_pairs,
            usable_groups=len(groups),
            tracks=tracks,
            moving=moving,
        )
        motion = apply_degradation(motion, health, cfg.health_min_pairs)
        logger.debug(
            "pipeline done: %d samples, %d tracks, %d rotation events, "
            "distance %.3f m",
            trace.n_samples,
            len(tracks),
            len(rotations),
            motion.total_distance,
        )
        return RimResult(
            motion=motion,
            movement=movement,
            group_tracks=tracks,
            ring_tracks=ring_tracks,
            health=health,
        )

    # -- pipeline stages -------------------------------------------------

    def _blind_mask(self, data: np.ndarray, dead: set) -> np.ndarray:
        """(T,) samples whose virtual-antenna window is starved of data.

        A loss burst longer than the interpolator's reach leaves an all-NaN
        region; the DP tracker free-runs through it and can latch onto
        arbitrary small lags, exploding the implied speed.  The same holds
        for a short clean island wedged between two such bursts — its own
        packets are fine but the TRRS window around it is empty.  Samples
        whose surrounding window holds too few finite packets are declared
        blind; speed/heading there fall back to hold-last-good.
        """
        t = data.shape[0]
        live = [a for a in range(data.shape[1]) if a not in dead]
        if not live:
            return np.ones(t, dtype=bool)
        lost = np.isnan(data.real).any(axis=(2, 3))
        usable = (~lost[:, live]).any(axis=1).astype(np.float64)
        if usable.all():
            return np.zeros(t, dtype=bool)
        window = max(5, self.config.virtual_window) | 1
        coverage = np.convolve(usable, np.ones(window) / window, mode="same")
        return coverage < 0.3

    def _detect_movement(
        self, data: np.ndarray, fs: float, dead: Optional[set] = None
    ) -> MovementResult:
        cfg = self.config
        # An all-NaN (dead) reference chain would blind movement detection;
        # use the first live one.  With no live chain at all there is no
        # evidence of movement — report still and let degradation flag it.
        reference = next(
            (a for a in range(data.shape[1]) if not dead or a not in dead), None
        )
        if reference is None:
            indicator = np.full(data.shape[0], np.nan)
            return MovementResult(
                indicator=indicator,
                moving=np.zeros(data.shape[0], dtype=bool),
                threshold=cfg.movement_threshold,
            )
        lag = max(1, int(round(MOVEMENT_LAG_SECONDS * fs)))
        indicator = self_trrs_indicator(
            data[:, reference], lag, virtual_window=max(1, cfg.virtual_window // 4)
        )
        return detect_movement(
            indicator, threshold=cfg.movement_threshold, min_run=cfg.movement_min_run
        )

    def _pre_detect(
        self,
        store,
        groups: List[List[AntennaPair]],
        moving: np.ndarray,
        fs: float,
    ) -> List[List[AntennaPair]]:
        """Cheap strided screen: keep pair groups with prominent peaks (§4.3).

        The lead pairs of *all* groups go to the kernel backend in one
        batched request; the strided ``virtual_window=1`` rows it computes
        stay in ``store``, so confirmed groups don't pay for them again in
        the full tracking pass.
        """
        cfg = self.config
        mats = self._kernel.matrices(
            store,
            [group[0] for group in groups],
            virtual_window=1,
            sampling_rate=fs,
            time_stride=cfg.pre_detect_stride,
        )
        scored = []
        for m, group in zip(mats, groups):
            score = peak_prominence_score(m.values, moving)
            obs.observe(
                "trrs.peak_prominence", score, bounds=obs.PROMINENCE_BOUNDS
            )
            scored.append((score, group))
        scored.sort(key=lambda item: item[0], reverse=True)
        keep = [g for s, g in scored[: cfg.pre_detect_keep] if s >= PRE_DETECT_MIN_SCORE]
        if not keep and scored:
            keep = [scored[0][1]]
        obs.add("rim.groups_prescreened", len(groups))
        obs.add("rim.groups_confirmed", len(keep))
        return keep

    def _track_groups(
        self, store, candidates: List[List[AntennaPair]], fs: float
    ) -> List[GroupTrack]:
        """Full-resolution matrices and DP tracks for the confirmed groups.

        Every member pair of every candidate group is computed in a single
        batched kernel request (§4.2's group averaging then happens on the
        returned per-pair matrices).
        """
        cfg = self.config
        members = [
            group if cfg.use_parallel_averaging else group[:1]
            for group in candidates
        ]
        mats = self._kernel.matrices(
            store,
            [p for mem in members for p in mem],
            virtual_window=cfg.virtual_window,
            sampling_rate=fs,
        )
        group_matrices = []
        cursor = 0
        for mem in members:
            group_mats = mats[cursor : cursor + len(mem)]
            cursor += len(mem)
            group_matrices.append(
                average_matrices(group_mats) if len(group_mats) > 1 else group_mats[0]
            )
        # All confirmed groups track in one batched kernel request.
        paths = self._kernel.track_paths(
            group_matrices,
            transition_weight=cfg.transition_weight,
            refine=REFINE_SUBSAMPLE,
        )
        tracks = []
        for group, matrix, path in zip(candidates, group_matrices, paths):
            quality = path_quality(
                matrix, path, smoothing_window=cfg.quality_smoothing
            )
            tracks.append(
                GroupTrack(pairs=list(group), matrix=matrix, path=path, quality=quality)
            )
        return tracks

    def _stream_cache_safe(self, data: np.ndarray, guard_report) -> bool:
        """May this block seed from / feed the cross-block TRRS cache?

        A cached cell is only valid if the retained samples' normalized
        CFRs are bit-identical to what the previous block computed from.
        Sanitization and normalization are per-sample, so that holds
        unless (a) the guard modified the buffer this block (repairs,
        drops, dedup — all counted in the report), or (b) the loss
        interpolator ran over a buffer containing lost packets, since the
        interpolant near the seam changes as future samples arrive.
        """
        if guard_report is not None and guard_report.repairs():
            return False
        cfg = self.config
        if (
            cfg.interpolate_loss
            and cfg.interpolation_max_gap > 0
            and bool(np.isnan(data.real).any())
        ):
            return False
        return True

    def _post_filter(
        self, tracks: List[GroupTrack], moving: np.ndarray
    ) -> List[GroupTrack]:
        """Keep tracks passing the post-check; never drop below one (§4.3)."""
        if not tracks:
            return tracks
        checked = [(post_check(t.matrix, t.path, moving), t) for t in tracks]
        accepted = [t for chk, t in checked if chk.accepted]
        if accepted:
            return accepted
        best = max(checked, key=lambda item: item[0].mean_prominence)
        return [best[1]]

    def _detect_rotation(
        self,
        trace: CsiTrace,
        store,
        moving: np.ndarray,
        fs: float,
        dead: Optional[set] = None,
    ):
        """Concurrent ring-pair alignment ⇒ in-place rotation (§4.4(3))."""
        cfg = self.config
        if not trace.array.circular:
            return [], []

        ring = adjacent_ring_pairs(trace.array)
        if dead:
            # Pairs touching a dead chain carry all-NaN TRRS rows; drop
            # them from the vote.  The near-unanimity requirement below
            # shrinks with the surviving ring, so rotation sensing keeps
            # working (at reduced confidence) until too few pairs remain.
            ring = [p for p in ring if p.i not in dead and p.j not in dead]
            if len(ring) < 2 * ROTATION_MIN_GROUPS:
                return [], []
        # Cheap screen first: rotation requires most ring pairs prominent.
        # One batched request covers all ring pairs; the strided base rows
        # it computes stay in the store and are reused by the full pass.
        pre_mats = self._kernel.matrices(
            store,
            ring,
            virtual_window=1,
            sampling_rate=fs,
            time_stride=cfg.pre_detect_stride,
        )
        pre_scores = [peak_prominence_score(m.values, moving) for m in pre_mats]
        prominent = sum(s >= ROTATION_PRE_SCORE for s in pre_scores)
        if prominent < 2 * ROTATION_MIN_GROUPS:
            return [], []

        # In-place rotation moves antennas at the slow arc speed ω·r, so a
        # translation-sized V covers millimeters of aperture and the TRRS
        # averaging starves.  Widen the window to recover spatial diversity
        # (Eqn. 4's benefit scales with the aperture, not the sample count).
        ring_window = min(4 * cfg.virtual_window, 2 * cfg.max_lag + 1)
        ring_mats = self._kernel.matrices(
            store, ring, virtual_window=ring_window, sampling_rate=fs
        )
        # The whole ring tracks in one batched kernel request.
        paths = self._kernel.track_paths(
            ring_mats,
            transition_weight=cfg.transition_weight,
            refine=REFINE_SUBSAMPLE,
        )
        tracks = []
        for p, matrix, path in zip(ring, ring_mats, paths):
            quality = path_quality(matrix, path, smoothing_window=cfg.quality_smoothing)
            tracks.append(GroupTrack(pairs=[p], matrix=matrix, path=path, quality=quality))

        # Distinct ring axes aligned simultaneously per sample.  Strength is
        # judged over a short window: peak quality flickers sample to sample
        # even during steady rotation, so we ask each axis to be strong most
        # of the time within ~0.3 s rather than at every instant.
        from repro.core.alignment import nan_moving_average

        axes = np.array([t.axis_angle % np.pi for t in tracks])
        smooth_win = max(3, int(round(0.3 * fs)))
        strong = np.stack(
            [
                nan_moving_average(
                    (t.quality > ROTATION_QUALITY).astype(float)[:, None],
                    smooth_win,
                )[:, 0]
                > 0.5
                for t in tracks
            ],
            axis=0,
        )
        # Rotation moves every antenna along the same circle in the same
        # sense, so *all* ring-ordered pairs align with the SAME lag sign.
        # Translation is different in both counts and signs: only the two
        # quasi-parallel axes show (deviated) peaks, and their opposite-side
        # ring pairs carry opposite signs (anti-parallel rays).  Requiring
        # near-unanimous sign-consistent ring alignment rejects those.
        ring_lags = np.stack([t.path.refined_lags for t in tracks], axis=0)
        lag_sign = np.sign(ring_lags)
        abs_lags = np.abs(ring_lags)
        unique_axes = np.unique(np.round(axes, 3))
        t_len = strong.shape[1]
        n_ring = len(tracks)
        need_pairs = max(ROTATION_MIN_GROUPS + 1, n_ring - 2)
        from repro.nanops import nanmedian

        for sign in (1, -1):
            consistent = strong & (lag_sign == sign)
            # All antennas ride the same circle at the same speed, so the
            # sign-consistent pairs must also share |lag|.  Translation's
            # quasi-aligned pairs have a much shorter lag than whatever
            # clutter happens to match their sign, so this kills the
            # remaining false positives.
            masked = np.where(consistent, abs_lags, np.nan)
            med = nanmedian(masked, axis=0)
            with np.errstate(invalid="ignore"):
                coherent = consistent & (abs_lags > 0.55 * med) & (
                    abs_lags < 1.8 * med
                )
            pair_count = coherent.sum(axis=0)
            axis_count = np.zeros(t_len, dtype=np.int64)
            for axis in unique_axes:
                members = np.isclose(axes, axis, atol=1e-3)
                axis_count += coherent[members].any(axis=0)
            candidate = (pair_count >= need_pairs) & (
                axis_count >= ROTATION_MIN_GROUPS
            )
            if sign == 1:
                rotating = candidate
            else:
                rotating = rotating | candidate
        rotating &= moving
        rotating = self._close_mask_gaps(rotating, max_gap=int(round(0.75 * fs)))
        rotating &= moving
        rotating = self._backfill_blind_start(rotating, moving, fs)

        events = self._rotation_events(trace, tracks, rotating, fs)
        return tracks, events

    def _backfill_blind_start(
        self, rotating: np.ndarray, moving: np.ndarray, fs: float
    ) -> np.ndarray:
        """Extend a rotation event back over the blind start-up period.

        Alignment peaks appear only after the follower has rotated through
        the adjacent arc (§5, minimum initial motion); if a rotation event
        starts shortly after movement starts, the preceding moving samples
        were blind rotation, not stillness.
        """
        idx = np.nonzero(rotating)[0]
        mov = np.nonzero(moving)[0]
        if idx.size == 0 or mov.size == 0:
            return rotating
        start = idx[0]
        move_start = mov[0]
        blind_budget = self.config.max_lag + self.config.virtual_window
        if 0 < start - move_start <= blind_budget and moving[move_start:start].all():
            rotating = rotating.copy()
            rotating[move_start:start] = True
        return rotating

    @staticmethod
    def _close_mask_gaps(mask: np.ndarray, max_gap: int) -> np.ndarray:
        """Bridge short False runs between True runs (rotation continuity)."""
        mask = mask.copy()
        idx = np.nonzero(mask)[0]
        if idx.size < 2:
            return mask
        gaps = np.diff(idx)
        for where in np.nonzero((gaps > 1) & (gaps <= max_gap))[0]:
            mask[idx[where] : idx[where + 1]] = True
        return mask

    def _rotation_events(self, trace, tracks, rotating, fs) -> List[RotationEvent]:
        from repro.arrays.geometry import arc_separation

        cfg = self.config
        events: List[RotationEvent] = []
        ring_lags = np.stack([t.path.refined_lags for t in tracks], axis=0)
        # Only count lags where the ring pair actually shows a peak.
        strong = np.stack([t.quality > ROTATION_QUALITY for t in tracks], axis=0)
        ring_lags = np.where(strong, ring_lags, np.nan)
        arc = arc_separation(trace.array, tracks[0].pairs[0].i, tracks[0].pairs[0].j)
        radius = trace.array.radius

        t = rotating.size
        k = 0
        while k < t:
            if not rotating[k]:
                k += 1
                continue
            start = k
            while k < t and rotating[k]:
                k += 1
            stop = k
            active = np.zeros(t, dtype=bool)
            active[start:stop] = True
            angle = integrate_rotation(
                ring_lags,
                arc_separation=arc,
                radius=radius,
                sampling_rate=fs,
                times=trace.times,
                active=active,
                min_lag=cfg.min_speed_lag,
            )
            if abs(angle) > 1e-3:
                events.append(RotationEvent(start_index=start, stop_index=stop, angle=angle))
        return events

    def _reckon(
        self,
        trace: CsiTrace,
        tracks: List[GroupTrack],
        moving: np.ndarray,
        rotations: List[RotationEvent],
        fs: float,
        blind: Optional[np.ndarray] = None,
    ) -> MotionEstimate:
        cfg = self.config
        t = trace.n_samples

        translating = moving.copy()
        for ev in rotations:
            translating[ev.start_index : ev.stop_index] = False

        choice = select_group_per_sample(
            tracks,
            translating,
            hysteresis=cfg.selection_hysteresis,
            min_quality=SELECTION_MIN_QUALITY,
        )

        speed = np.full(t, np.nan)
        heading = np.full(t, np.nan)
        for g, track in enumerate(tracks):
            sel = choice == g
            if not sel.any():
                continue
            lags = track.path.refined_lags
            v = speed_from_lags(lags, track.separation, fs, min_lag=cfg.min_speed_lag)
            speed[sel] = v[sel]
            # heading() depends only on the lag's sign, so evaluate it for
            # the two possible signs and broadcast — same values as the
            # per-sample calls, without T python-level invocations.
            pair = track.pairs[0]
            ang = np.where(lags >= 0, pair.heading(1), pair.heading(-1))
            heading[sel] = ang[sel]

        if cfg.fine_direction and tracks:
            from repro.core.finedirection import refine_headings

            heading = refine_headings(
                tracks, choice, heading, floor=SELECTION_MIN_QUALITY
            )

        if blind is not None and blind.any():
            speed[blind] = np.nan
            heading[blind] = np.nan

        speed = self._fill_speed_episodes(speed, translating)
        speed = smooth_speed(speed, cfg.speed_smoothing)
        speed = np.where(translating, speed, 0.0)
        heading = np.where(translating, heading, np.nan)

        return MotionEstimate(
            times=trace.times,
            moving=moving,
            speed=speed,
            heading=heading,
            group_choice=choice,
            rotations=rotations,
        )

    def _fill_speed_episodes(self, speed: np.ndarray, moving: np.ndarray) -> np.ndarray:
        """Fill speed gaps inside each moving episode.

        Interior NaNs hold the previous estimate.  Leading NaNs (the blind
        start-up period of §5: the follower must first travel Δd) are
        backfilled with the first measured speed, which integrates to the
        Δd compensation the paper applies.
        """
        out = speed.copy()
        t = speed.size
        k = 0
        while k < t:
            if not moving[k]:
                k += 1
                continue
            start = k
            while k < t and moving[k]:
                k += 1
            stop = k
            seg = out[start:stop]
            finite = np.nonzero(np.isfinite(seg))[0]
            if finite.size == 0:
                continue
            if MIN_INITIAL_DISTANCE_COMPENSATION:
                seg[: finite[0]] = seg[finite[0]]
            for idx in range(finite[0] + 1, seg.size):
                if not np.isfinite(seg[idx]):
                    seg[idx] = seg[idx - 1]
            out[start:stop] = seg
        return out
