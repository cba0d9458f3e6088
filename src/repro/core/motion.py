"""Motion reckoning: lags → speed, heading, rotation, trajectory (§4.4).

Given the per-sample aligned group and its tracked alignment delay, the
instantaneous speed is v(t) = Δd · f_s / |lag(t)| (the follower needed
lag/f_s seconds to travel the antenna separation Δd); heading is the world
angle of the aligned pair's ray, flipped by the lag sign; distance is the
time integral of speed over moving samples; and the relative trajectory is
dead-reckoned from (v, θ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.nanops import nanmedian, running_median


@dataclass
class RotationEvent:
    """One detected in-place rotation (§4.4(3)).

    Attributes:
        start_index, stop_index: Sample range of the rotation.
        angle: Signed rotation angle, radians (positive = CCW).
    """

    start_index: int
    stop_index: int
    angle: float


@dataclass
class MotionEstimate:
    """The full output of RIM's motion reckoning.

    Attributes:
        times: (T,) timestamps, seconds.
        moving: (T,) movement mask.
        speed: (T,) speed estimates, m/s (0 when not moving, NaN when
            moving but unresolved).
        heading: (T,) world heading, radians (NaN when unresolved).
        group_choice: (T,) selected group index (-1 = none).
        rotations: Detected in-place rotation events.
    """

    times: np.ndarray
    moving: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    group_choice: np.ndarray
    rotations: List[RotationEvent] = field(default_factory=list)

    def cumulative_distance(self) -> np.ndarray:
        """(T,) integrated moving distance d(t) = ∫ v dτ (§4.4(1))."""
        speed = np.where(self.moving & np.isfinite(self.speed), self.speed, 0.0)
        dt = np.diff(self.times, prepend=self.times[0])
        dt[0] = 0.0
        return np.cumsum(speed * dt)

    @property
    def total_distance(self) -> float:
        return float(self.cumulative_distance()[-1]) if self.times.size else 0.0

    @property
    def total_rotation(self) -> float:
        return float(sum(ev.angle for ev in self.rotations))

    def positions(self, start=(0.0, 0.0), initial_heading: float = None) -> np.ndarray:
        """Dead-reckoned relative trajectory from (speed, heading).

        Args:
            start: Initial position.
            initial_heading: Optional heading override applied where the
                estimated heading is NaN at the trace start.

        Returns:
            (T, 2) positions.
        """
        t = self.times.size
        pos = np.zeros((t, 2))
        pos[0] = np.asarray(start, dtype=np.float64)
        heading = self.heading.copy()
        # Hold the last resolved heading over gaps; seed with the override.
        last = initial_heading if initial_heading is not None else np.nan
        for k in range(t):
            if np.isfinite(heading[k]):
                last = heading[k]
            else:
                heading[k] = last
        dt = np.diff(self.times)
        for k in range(1, t):
            v = self.speed[k]
            ok = self.moving[k] and np.isfinite(v) and np.isfinite(heading[k])
            if ok:
                step = v * dt[k - 1]
                pos[k] = pos[k - 1] + step * np.array(
                    [np.cos(heading[k]), np.sin(heading[k])]
                )
            else:
                pos[k] = pos[k - 1]
        return pos


def speed_from_lags(
    lags: np.ndarray,
    separation: float,
    sampling_rate: float,
    min_lag: float = 1.5,
) -> np.ndarray:
    """v(t) = Δd · f_s / |lag(t)| with a quantization guard.

    Args:
        lags: (T,) (refined) alignment delays in samples.
        separation: Antenna separation Δd of the aligned pair, meters.
        sampling_rate: Packet rate f_s, Hz.
        min_lag: |lag| below this yields NaN — either the speed exceeds the
            resolvable maximum or the pair is not truly retracing.

    Returns:
        (T,) speeds, m/s (NaN where unresolved).
    """
    lags = np.asarray(lags, dtype=np.float64)
    out = np.full(lags.shape, np.nan)
    ok = np.isfinite(lags) & (np.abs(lags) >= min_lag)
    out[ok] = separation * sampling_rate / np.abs(lags[ok])
    return out


def smooth_speed(speed: np.ndarray, window: int) -> np.ndarray:
    """NaN-tolerant median smoothing of the speed series."""
    if window <= 1:
        return speed
    speed = np.asarray(speed, dtype=np.float64)
    finite = np.isfinite(speed)
    if not finite.any():
        return speed
    return _filled_running_median(speed, finite, window)


def _filled_running_median(
    values: np.ndarray, finite: np.ndarray, size: int
) -> np.ndarray:
    """Running median of ``values`` with its NaNs filled first.

    The median needs dense data: each NaN takes the last finite value
    before it, and leading NaNs the first finite one.  ``finite`` must
    hold at least one True.
    """
    idx = np.where(finite, np.arange(values.size), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, values[np.maximum(idx, 0)], np.nan)
    first = int(np.argmax(finite))
    filled[:first] = values[first]
    return running_median(filled, size)


def integrate_rotation(
    ring_lags: np.ndarray,
    arc_separation: float,
    radius: float,
    sampling_rate: float,
    times: np.ndarray,
    active: np.ndarray,
    min_lag: float = 1.5,
) -> float:
    """Signed in-place rotation angle over an active window (§4.4(3)).

    Args:
        ring_lags: (n_ring, T) tracked lags of the ring-ordered adjacent
            pairs (i, next-CCW); positive lag ⇒ CCW rotation.
        arc_separation: Arc length between adjacent antennas (π/3·Δd for
            the hexagon).
        radius: Array circumradius r.
        sampling_rate: Packet rate, Hz.
        times: (T,) timestamps.
        active: (T,) mask of samples inside the rotation event.
        min_lag: Quantization guard as in :func:`speed_from_lags`.

    Returns:
        The signed rotation angle Δθ = R / r, radians.
    """
    ring_lags = np.asarray(ring_lags, dtype=np.float64)
    if ring_lags.ndim != 2:
        raise ValueError("ring_lags must be (n_ring, T)")
    valid = np.isfinite(ring_lags) & (np.abs(ring_lags) >= min_lag)
    # Signed per-pair angular speed; the cross-pair median rejects pairs
    # whose tracker momentarily latched onto a small-lag clutter peak
    # (a tiny |lag| explodes the implied speed).
    omega_per_pair = np.where(
        valid,
        np.sign(ring_lags) * arc_separation * sampling_rate / np.abs(ring_lags) / radius,
        np.nan,
    )
    # Cross-pair median per sample; samples backed by a single pair are too
    # easily poisoned by one clutter lag, so they are dropped (and bridged
    # by the interpolation below).
    omega = nanmedian(omega_per_pair, axis=0)
    omega = np.where(valid.sum(axis=0) >= 2, omega, np.nan)
    # Rotation is smooth on packet timescales: a short temporal median
    # rejects the remaining single-sample spikes.
    finite = np.isfinite(omega)
    if finite.any():
        win = max(3, int(round(0.2 * sampling_rate)) | 1)
        smoothed = _filled_running_median(omega, finite, win)
        omega = np.where(finite, smoothed, np.nan)
    # Inside the event, bridge samples where no ring pair resolved a lag by
    # interpolating the angular speed — rotation is continuous, so gaps in
    # peak visibility must not silently drop rotation mass.
    active = np.asarray(active, dtype=bool)
    idx = np.nonzero(active)[0]
    if idx.size:
        seg = omega[idx]
        finite = np.isfinite(seg)
        if finite.any():
            seg = np.interp(np.arange(seg.size), np.nonzero(finite)[0], seg[finite])
        else:
            seg = np.zeros_like(seg)
        omega = omega.copy()
        omega[idx] = seg
    omega = np.where(np.isfinite(omega), omega, 0.0)
    dt = np.diff(times, prepend=times[0])
    dt[0] = 0.0
    return float(np.sum(omega * dt * active))
