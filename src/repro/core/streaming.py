"""Streaming RIM: bounded-memory, block-incremental motion estimation.

The paper's deployment is a real-time C++ system (§5, §6.2.9; ~6% CPU on
a Surface Pro).  This module provides the equivalent online interface on
top of the batch kernels: CSI packets are pushed one at a time; every
``block_seconds`` the estimator reprocesses the new block plus a trailing
context window (long enough to cover the alignment-lag window W and the
virtual-antenna aperture V) and emits the motion increments for the new
samples only.

Memory is bounded by context + block regardless of trace length, and
latency equals the block length.  The streamed cumulative distance matches
the offline estimate up to block-boundary effects (verified in tests).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs.provenance import SampleProvenance, block_breakdown, observe_breakdown
from repro.arrays.geometry import AntennaArray
from repro.channel.sampler import CsiTrace
from repro.core.config import MOVEMENT_LAG_SECONDS, RimConfig
from repro.core.rim import Rim
from repro.core.sanitize import remove_phase_slope
from repro.motionsim.trajectory import Trajectory
from repro.perf.streamcache import StreamAlignmentCache
from repro.robustness.guard import GuardError, StreamGuard
from repro.robustness.health import HealthReport

logger = logging.getLogger(__name__)


@dataclass
class MotionUpdate:
    """Incremental output for one completed block.

    Attributes:
        times: (B,) timestamps of the block's samples.
        speed: (B,) speed estimates, m/s.
        heading: (B,) device-frame headings, radians (NaN = unresolved).
        moving: (B,) movement mask.
        block_distance: Distance covered within this block, meters.
        total_distance: Cumulative distance since the stream started.
        health: Health telemetry for this block (loss, liveness, repairs,
            degradation) — None only when the guard is off and the
            estimator produced no report.
        stats: Per-block instrumentation when :mod:`repro.obs` is
            enabled, None otherwise: ``"block_latency_s"`` (the block's
            wall time) and — when the block-completing sample carried a
            provenance context — a ``"provenance"`` wire/queue-wait/
            kernel/emit latency breakdown.
    """

    times: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    moving: np.ndarray
    block_distance: float
    total_distance: float
    health: Optional[HealthReport] = None
    stats: Optional[Dict[str, Any]] = None


class StreamingRim:
    """Online wrapper around :class:`~repro.core.rim.Rim`.

    Args:
        array: The receive antenna array.
        sampling_rate: CSI packet rate, Hz.
        config: RIM configuration (shared with the batch estimator).
        block_seconds: Emission cadence (and latency).
        carrier_wavelength: Carrier wavelength (for CsiTrace metadata).
    """

    def __init__(
        self,
        array: AntennaArray,
        sampling_rate: float,
        config: Optional[RimConfig] = None,
        block_seconds: float = 1.0,
        carrier_wavelength: float = 0.0516,
    ):
        if sampling_rate <= 0:
            raise ValueError("sampling_rate must be positive")
        if block_seconds <= 0:
            raise ValueError("block_seconds must be positive")
        self.array = array
        self.sampling_rate = float(sampling_rate)
        self.config = config or RimConfig()
        self.carrier_wavelength = carrier_wavelength

        self.block_samples = max(4, int(round(block_seconds * sampling_rate)))
        # Context must cover the lag window, the virtual aperture, and the
        # movement-detection lag so block-local processing sees the same
        # neighborhoods the offline pass would.
        movement_lag = int(round(MOVEMENT_LAG_SECONDS * sampling_rate))
        self.context_samples = (
            self.config.max_lag + self.config.virtual_window + movement_lag
        )

        self._rim = Rim(self.config)
        # Cross-block TRRS row reuse: the previous block's base-alignment
        # rows for the retained context window are seeded into the next
        # block's kernel store, so only rows involving freshly pushed
        # samples are computed (invalidated whenever the guard repairs or
        # resamples the buffer — see Rim._stream_cache_safe).
        self._align_cache = (
            StreamAlignmentCache() if self.config.stream_reuse else None
        )
        self._buffer_offset = 0  # global stream index of window row 0
        # Packet-level guard: the block buffer must stay strictly monotonic
        # (a non-monotonic dt corrupts block distance), so duplicates and
        # late packets are rejected at the door rather than mid-block.
        self._guard = StreamGuard(policy=self.config.guard_policy)
        # The retained window (context + pending samples) lives in arrays
        # allocated on the first packet, once its shape is known: rows
        # [0, _n) of _raw hold the admitted packets as complex64, the
        # dtype the block path feeds CsiTrace, and _times their stamps.
        # A block reads them as views and trims them with one in-place
        # move, so nothing is re-stacked per block.
        self._raw = _NO_ROWS
        self._times = np.empty(0)
        self._n = 0
        # Ingest-fused sanitize: phase sanitization is per-sample, so each
        # admitted packet is sanitized exactly once on arrival instead of
        # once per block it appears in (a context-window sample is
        # reprocessed by every block that retains it).  _clean is
        # parallel to _raw and trimmed identically; the estimator
        # falls back to its own sanitize pass whenever the fused view
        # cannot be trusted (guard repairs, pending loss interpolation).
        self._fuse_sanitize = bool(self.config.sanitize)
        self._clean = _NO_ROWS
        # Parallel to the window: the provenance context each admitted
        # sample arrived with (None when tracing is off) — trimmed identically.
        self._prov: List[Optional[SampleProvenance]] = []
        self._pending_start = 0  # buffer index where unreported samples begin
        self._total_distance = 0.0
        self._n_pushed = 0
        self._last_good_speed = 0.0
        self._clock_resamples = 0
        self._blocks_emitted = 0
        self._samples_emitted = 0

    @property
    def total_distance(self) -> float:
        """Cumulative streamed distance, meters."""
        return self._total_distance

    @property
    def buffered_samples(self) -> int:
        return self._n

    @property
    def pending_samples(self) -> int:
        """Admitted samples not yet covered by an emitted update."""
        return self._n - self._pending_start

    @property
    def blocks_emitted(self) -> int:
        """Updates emitted so far (the serving layer's block counter)."""
        return self._blocks_emitted

    @property
    def samples_emitted(self) -> int:
        """Samples covered by emitted updates (throughput accounting)."""
        return self._samples_emitted

    def push(
        self,
        packet: np.ndarray,
        timestamp: Optional[float] = None,
        provenance: Optional[SampleProvenance] = None,
    ):
        """Feed one CSI packet; returns a MotionUpdate when a block completes.

        Non-monotonic, duplicate, or non-finite timestamps are handled by
        the stream guard according to ``config.guard_policy``: rejected
        quietly under ``"repair"``/``"drop"`` (counted in the next block's
        health report) or raised as :class:`GuardError` under ``"raise"``.

        Args:
            packet: (n_rx, n_tx, S) complex CFRs for this packet (NaN for a
                lost packet slot).
            timestamp: Packet time; defaults to n / sampling_rate.
            provenance: Optional trace context riding this sample; resolved
                into a latency breakdown when its block emits (tracing only
                — never consulted by the numerics).

        Returns:
            A :class:`MotionUpdate` for the newly completed block, or None.
        """
        packet = np.asarray(packet)
        if packet.ndim != 3 or packet.shape[0] != self.array.n_antennas:
            raise ValueError(
                f"packet must be (n_rx={self.array.n_antennas}, n_tx, S), "
                f"got {packet.shape}"
            )
        if len(self._raw) and packet.shape != self._raw.shape[1:]:
            raise ValueError(
                f"packet shape {packet.shape} differs from the stream's "
                f"{self._raw.shape[1:]}"
            )
        if timestamp is None:
            timestamp = self._n_pushed / self.sampling_rate
        admitted = self._guard.admit(packet, float(timestamp))
        if admitted is None:
            return None
        packet, timestamp = admitted
        n = self._n
        if n == len(self._raw):
            self._reserve(packet.shape, n + 1)
        self._raw[n] = packet
        if self._fuse_sanitize:
            self._clean[n] = self._sanitize_packet(packet)
        self._times[n] = timestamp
        self._n = n + 1
        self._prov.append(provenance if obs.enabled() else None)
        self._n_pushed += 1

        if self._n - self._pending_start >= self.block_samples:
            return self._emit_block()
        return None

    def flush(self):
        """Process whatever remains in the buffer (end of stream)."""
        if self._n - self._pending_start == 0:
            return None
        return self._emit_block(final=True)

    # -- checkpoint / resume ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Everything needed to resume this stream bit-identically.

        Captures the retained packet buffer (context window + pending
        samples), the global buffer offset, the motion accumulator and
        degradation state, the cumulative emission counters, the stream
        guard's admission state, and the cross-block alignment cache.
        :class:`~repro.core.rim.Rim` itself holds no cross-call state, so
        config + array (which the caller must reconstruct the object
        with) complete the picture.  Arrays are copied; the snapshot
        stays valid as the stream moves on.
        """
        n = self._n
        packets = self._raw[:n].copy() if n else None
        sanitized = self._clean[:n].copy() if self._fuse_sanitize and n else None
        return {
            "version": 1,
            "packets": packets,
            "sanitized": sanitized,
            "times": self._times[:n].copy(),
            "pending_start": int(self._pending_start),
            "buffer_offset": int(self._buffer_offset),
            "total_distance": float(self._total_distance),
            "n_pushed": int(self._n_pushed),
            "last_good_speed": float(self._last_good_speed),
            "clock_resamples": int(self._clock_resamples),
            "blocks_emitted": int(self._blocks_emitted),
            "samples_emitted": int(self._samples_emitted),
            "guard": self._guard.state_dict(),
            "align_cache": (
                None if self._align_cache is None else self._align_cache.state_dict()
            ),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output into this (compatible) stream.

        The receiving object must be built with the same array, sampling
        rate, and config as the checkpointed one — geometry mismatches
        are rejected, semantic config differences are the caller's
        responsibility.  Cumulative counters (``blocks_emitted``,
        ``samples_emitted``, ``total_distance``, pushed/pending
        accounting) are restored too, so a resumed session keeps
        reporting stream-lifetime totals rather than restarting from
        zero.
        """
        version = int(state.get("version", 0))
        if version != 1:
            raise ValueError(
                f"unsupported StreamingRim state version {version} "
                "(this build reads version 1)"
            )
        packets = state["packets"]
        n = 0
        if packets is not None:
            packets = np.asarray(packets)
            if packets.ndim != 4 or packets.shape[1] != self.array.n_antennas:
                raise ValueError(
                    f"checkpoint buffer shape {packets.shape} does not match "
                    f"an (n, n_rx={self.array.n_antennas}, n_tx, S) stream"
                )
            n = packets.shape[0]
        times = np.asarray(state["times"], dtype=np.float64)
        if times.shape != (n,):
            raise ValueError(
                f"checkpoint holds {n} packets but {times.size} timestamps"
            )
        self._raw = self._clean = _NO_ROWS
        self._n = 0
        if n:
            self._reserve(packets.shape[1:], n)
            self._raw[:n] = packets
            self._times[:n] = times
            # Restore the ingest-sanitized window when the checkpoint
            # carries a matching one; otherwise (older checkpoint, sanitize
            # toggled on after the snapshot) recompute it — sanitization is
            # per-sample, so the rebuilt rows are bit-identical to an
            # uninterrupted stream's.
            if self._fuse_sanitize:
                sanitized = state.get("sanitized")
                if sanitized is not None and np.shape(sanitized) == packets.shape:
                    self._clean[:n] = sanitized
                else:
                    for k in range(n):
                        self._clean[k] = self._sanitize_packet(self._raw[k])
            self._n = n
        # Provenance contexts are transient (live latency only) and are
        # deliberately not checkpointed; restored samples carry none.
        self._prov = [None] * n
        self._pending_start = int(state["pending_start"])
        self._buffer_offset = int(state["buffer_offset"])
        self._total_distance = float(state["total_distance"])
        self._n_pushed = int(state["n_pushed"])
        self._last_good_speed = float(state["last_good_speed"])
        self._clock_resamples = int(state["clock_resamples"])
        self._blocks_emitted = int(state["blocks_emitted"])
        self._samples_emitted = int(state["samples_emitted"])
        self._guard.load_state_dict(state["guard"])
        cache_state = state.get("align_cache")
        if self._align_cache is not None:
            if cache_state is None:
                self._align_cache.reset()
            else:
                self._align_cache.load_state_dict(cache_state)
        # A checkpoint taken with stream_reuse on, loaded into a stream
        # with it off, is fine: the cache is a pure accelerator.

    def reset(self) -> None:
        """Return to the just-constructed state for a fresh stream.

        Clears the packet buffer, motion accumulator, emission counters,
        guard watermark, and — coherently — the perf row cache, so a
        replay can reuse this object without leaking state (previously
        only reachable by rebuilding it).
        """
        self._raw = self._clean = _NO_ROWS
        self._n = 0
        self._prov = []
        self._pending_start = 0
        self._buffer_offset = 0
        self._total_distance = 0.0
        self._n_pushed = 0
        self._last_good_speed = 0.0
        self._clock_resamples = 0
        self._blocks_emitted = 0
        self._samples_emitted = 0
        self._guard = StreamGuard(policy=self.config.guard_policy)
        if self._align_cache is not None:
            self._align_cache.reset()

    # -- internals ---------------------------------------------------------

    def _reserve(self, shape: Tuple[int, ...], rows: int) -> None:
        """(Re)allocate the window for ``rows`` samples, keeping its rows.

        A block trims the window to ``context_samples`` and fires once
        ``block_samples`` more arrive, so the first allocation is the
        last one; only a checkpoint cut with another block length or
        context can outgrow it, and then the window doubles.
        """
        rows = max(rows, self.context_samples + self.block_samples, 2 * self._n)
        raw = np.empty((rows, *shape), dtype=np.complex64)
        clean = np.empty_like(raw) if self._fuse_sanitize else _NO_ROWS
        times = np.empty(rows)
        n = self._n
        if n:
            raw[:n] = self._raw[:n]
            clean[:n] = self._clean[:n]
            times[:n] = self._times[:n]
        self._raw, self._clean, self._times = raw, clean, times

    def _sanitize_packet(self, packet: np.ndarray) -> np.ndarray:
        """Sanitize one admitted packet at ingest (fused-sanitize path).

        The packet is cast to complex64 — the dtype the block path feeds
        :class:`~repro.channel.sampler.CsiTrace` — and sanitized with the
        same per-(rx, tx)-vector math a whole-block ``sanitize_trace``
        applies (slope estimation and ramp removal have no cross-sample
        coupling).  The result agrees with the block pass to complex64
        round-off (the vectorized block multiply rounds differently at
        SIMD-lane boundaries) and, crucially, is computed exactly once:
        every block that retains this sample sees the identical bits, so
        cross-block TRRS cache cells and checkpoint round-trips stay
        bit-consistent.
        """
        out = remove_phase_slope(np.ascontiguousarray(packet, dtype=np.complex64))
        obs.add("sanitize.samples", 1)
        return out

    def _emit_block(self, final: bool = False) -> MotionUpdate:
        """Process the buffer and emit the new samples, timing the block.

        Per-block latency (the real-time budget: it must stay under
        ``block_seconds`` to keep up with the packet rate, §5) is recorded
        in the ``span.stream.block`` histogram and attached to the
        update's ``stats`` when :mod:`repro.obs` is enabled.

        When the block-completing sample carried a provenance context,
        the update's stats also get a ``"provenance"`` breakdown (wire /
        queue-wait / kernel / emit, summing exactly to ``e2e_s``) and the
        ``prov.*`` per-stage histograms are fed.
        """
        # The freshest pending sample is the one whose arrival completed
        # the block: its context measures current pipeline responsiveness.
        prov = None
        if obs.enabled():
            for ctx in reversed(self._prov[self._pending_start:]):
                if ctx is not None:
                    prov = ctx
                    break
        kernel_entry_s = time.perf_counter()
        with obs.span("stream.block"):
            update = self._process_block(final)
        kernel_exit_s = time.perf_counter()
        self._blocks_emitted += 1
        self._samples_emitted += int(update.times.size)
        if obs.enabled():
            obs.add("stream.blocks", 1)
            obs.add("stream.samples_emitted", int(update.times.size))
            update.stats = {"block_latency_s": kernel_exit_s - kernel_entry_s}
            if prov is not None:
                breakdown = block_breakdown(
                    prov,
                    kernel_entry_s,
                    kernel_exit_s,
                    time.perf_counter(),
                    n_samples=int(update.times.size),
                )
                observe_breakdown(breakdown)
                update.stats["provenance"] = breakdown
        return update

    def _process_block(self, final: bool = False) -> MotionUpdate:
        t = self._n
        data = self._raw[:t]
        times = self._times[:t].copy()
        start_new = self._pending_start
        if t < 2:
            # Rim.process needs two samples to define a sampling rate, and
            # a lone sample carries no motion: emit it as a still update.
            self._pending_start = t
            return MotionUpdate(
                times=times.copy(),
                speed=np.zeros(t),
                heading=np.full(t, np.nan),
                moving=np.zeros(t, dtype=bool),
                block_distance=0.0,
                total_distance=self._total_distance,
                health=HealthReport(
                    n_samples=t,
                    n_chains=self.array.n_antennas,
                    repairs=self._guard.drain_counters(),
                ),
            )
        times, resampled = self._repair_clock(times)
        if resampled and self._align_cache is not None:
            # The clock repair changes nothing in the CSI data, but it marks
            # a stream whose buffer composition we no longer trust to match
            # the previous block sample for sample.
            self._align_cache.clear()

        trace = CsiTrace(
            data=data,
            times=times,
            array=self.array,
            trajectory=_placeholder_trajectory(times),
            tx_positions=np.zeros((data.shape[2], 2)),
            carrier_wavelength=self.carrier_wavelength,
        )
        # Clock resampling rewrites timestamps only — the CSI samples are
        # untouched — so the ingest-sanitized view stays valid across it.
        # The block guard judges drift against the nominal rate: the
        # block's own mean rate reads undelivered samples as drift.
        result = self._rim.process(
            trace,
            stream_cache=self._align_cache,
            stream_offset=self._buffer_offset,
            presanitized=self._clean[:t] if self._fuse_sanitize else None,
            nominal_rate=self.sampling_rate,
        )

        motion = result.motion
        health = result.health
        if health is not None:
            repairs = dict(health.repairs)
            for key, value in self._guard.drain_counters().items():
                repairs[key] = repairs.get(key, 0) + value
            if resampled:
                repairs["clock_resampled"] = repairs.get("clock_resampled", 0) + 1
            health.repairs = repairs

        # Graceful degradation: a block with too little usable geometry
        # holds the last known-good speed instead of the batch default of
        # zero — motion does not stop because an antenna died mid-stream.
        speed = motion.speed
        if health is not None and health.degraded:
            speed = np.where(motion.moving, self._last_good_speed, 0.0)
        else:
            good = motion.moving & np.isfinite(motion.speed)
            if good.any():
                self._last_good_speed = float(motion.speed[np.nonzero(good)[0][-1]])

        sel = slice(start_new, t)
        dt = np.diff(times, prepend=times[0])
        dt[0] = 0.0
        speed_used = np.where(motion.moving & np.isfinite(speed), speed, 0.0)
        block_distance = float(np.sum(speed_used[sel] * dt[sel]))
        self._total_distance += block_distance

        update = MotionUpdate(
            times=times[sel].copy(),
            speed=speed[sel].copy(),
            heading=motion.heading[sel].copy(),
            moving=motion.moving[sel].copy(),
            block_distance=block_distance,
            total_distance=self._total_distance,
            health=health,
        )

        # Trim the window down to the context: one in-place move per
        # array (NumPy copies overlapping slices as if through a buffer).
        keep_from = max(0, t - self.context_samples)
        self._n = t - keep_from
        if keep_from:
            for window in (self._raw, self._clean, self._times):
                if len(window):
                    window[: self._n] = window[keep_from:t]
            self._prov = self._prov[keep_from:]
        self._pending_start = self._n
        self._buffer_offset += keep_from
        return update

    def _repair_clock(self, times: np.ndarray):
        """Snap drifted timestamps onto the nominal sampling grid.

        The block guard checks drift against the same nominal rate, but
        only the stream wrapper can rewrite the timestamps it integrates
        and emits, so it repairs the clock here, before the block runs.
        """
        cfg = self.config
        if cfg.guard_policy == "off" or times.size < 2:
            return times, False
        median_dt = float(np.median(np.diff(times)))
        drift = median_dt * self.sampling_rate - 1.0
        if abs(drift) <= cfg.guard_max_drift:
            return times, False
        if cfg.guard_policy == "raise":
            raise GuardError(
                f"stream clock drifted {drift * 1e6:.0f} ppm from the nominal "
                f"{self.sampling_rate:g} Hz grid"
            )
        self._clock_resamples += 1
        logger.warning(
            "stream clock drifted %.0f ppm; resampled block onto the nominal "
            "%g Hz grid (resample #%d)",
            drift * 1e6,
            self.sampling_rate,
            self._clock_resamples,
        )
        return times[0] + np.arange(times.size) / self.sampling_rate, True


# The window before its first packet, and _clean while fused sanitize is
# off: zero rows, never written.
_NO_ROWS = np.empty((0, 0, 0, 0), dtype=np.complex64)


def _placeholder_trajectory(times: np.ndarray) -> Trajectory:
    """A zero trajectory: Rim only reads its clock, never its positions."""
    n = times.size
    return Trajectory(
        times=times,
        positions=np.zeros((n, 2)),
        orientations=np.zeros(n),
    )
