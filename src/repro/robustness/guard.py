"""Input guarding for CSI ingestion: validate, repair, or reject.

The RIM kernels assume well-formed input — complex CSI of the right shape,
strictly increasing timestamps, a live signal on every RX chain.  Real
ingestion violates all of that (see :mod:`repro.robustness.faults`), so
both estimators run their input through a guard first:

* :func:`guard_trace` — batch: checks and (policy permitting) repairs a
  whole :class:`~repro.channel.sampler.CsiTrace` before ``Rim.process``.
* :class:`StreamGuard` — online: admits packets one at a time in front of
  ``StreamingRim.push``, so a block buffer is monotonic by construction.

Policies:

* ``"raise"``  — any fault raises :class:`GuardError`; pristine pipelines
  that would rather crash loudly than estimate from bad data.
* ``"drop"``   — offending packets are discarded; dead chains are masked.
* ``"repair"`` — best-effort recovery: reordered packets are sorted back,
  duplicates deduplicated, truncated packets converted to clean losses,
  drifted clocks resampled onto the nominal grid, dead chains masked.

Every action is counted in a :class:`GuardReport` so the health telemetry
(:mod:`repro.robustness.health`) can expose what the guard did.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.sampler import CsiTrace
from repro.core.config import GUARD_POLICIES
from repro.motionsim.trajectory import Trajectory

logger = logging.getLogger(__name__)


class GuardError(ValueError):
    """A fault the guard was configured not to tolerate."""


@dataclass
class GuardReport:
    """What the guard saw and did to one trace (or one stream window).

    Attributes:
        policy: The guard policy that produced this report.
        n_input: Packets presented to the guard.
        n_output: Packets surviving it.
        duplicates_dropped: Packets removed for carrying a repeated timestamp.
        reordered_repaired: Packets moved back into timestamp order.
        dropped_nonmonotonic: Packets discarded for violating monotonicity
            (``drop`` policy, or stream-mode repair where sorting is
            impossible).
        nonfinite_timestamps: Packets with NaN/inf timestamps removed.
        truncated_packets: Partially corrupt packets converted to losses.
        clock_resampled: True when timestamps were snapped to the nominal grid.
        drift_estimate: Fractional clock drift measured against nominal.
        dead_chains: RX chains below the liveness floor, masked out.
        chain_liveness: (n_rx,) fraction of finite packets per chain.
        loss_rate: Lost-slot fraction over the *live* chains only (a dead
            chain is reported via ``dead_chains``, not folded in here).
    """

    policy: str
    n_input: int
    n_output: int
    duplicates_dropped: int = 0
    reordered_repaired: int = 0
    dropped_nonmonotonic: int = 0
    nonfinite_timestamps: int = 0
    truncated_packets: int = 0
    clock_resampled: bool = False
    drift_estimate: float = 0.0
    dead_chains: List[int] = field(default_factory=list)
    chain_liveness: Optional[np.ndarray] = None
    loss_rate: float = 0.0

    def repairs(self) -> Dict[str, int]:
        """Nonzero repair counters, for telemetry."""
        counters = {
            "duplicates_dropped": self.duplicates_dropped,
            "reordered_repaired": self.reordered_repaired,
            "dropped_nonmonotonic": self.dropped_nonmonotonic,
            "nonfinite_timestamps": self.nonfinite_timestamps,
            "truncated_packets": self.truncated_packets,
            "clock_resampled": int(self.clock_resampled),
        }
        return {k: v for k, v in counters.items() if v}


def guard_trace(
    trace: CsiTrace,
    policy: str = "repair",
    min_chain_liveness: float = 0.2,
    max_clock_drift: float = 0.01,
    nominal_rate: Optional[float] = None,
) -> Tuple[CsiTrace, GuardReport]:
    """Validate and (policy permitting) repair a CSI trace.

    Args:
        trace: The possibly faulty trace.
        policy: ``"raise"``, ``"drop"``, or ``"repair"`` (``"off"`` returns
            the trace untouched with an empty report).
        min_chain_liveness: An RX chain with a smaller fraction of finite
            packets is declared dead and fully masked.
        max_clock_drift: Fractional deviation of the median packet interval
            from nominal beyond which timestamps are resampled.
        nominal_rate: Nominal packet rate, Hz; defaults to the trace
            trajectory's rate.

    Returns:
        ``(guarded_trace, report)``.  Under ``repair``/``drop`` the
        returned trace may be shorter than the input (duplicates and
        cripples removed); its ground-truth trajectory is re-interpolated
        onto the surviving timestamps so evaluation still works.

    Raises:
        GuardError: Under ``policy="raise"`` for any detected fault, and
            under every policy for malformed tensors (wrong rank).
    """
    if policy not in GUARD_POLICIES:
        raise ValueError(f"unknown guard policy {policy!r}; want one of {GUARD_POLICIES}")
    data = np.asarray(trace.data)
    times = np.asarray(trace.times, dtype=np.float64)
    if data.ndim != 4:
        raise GuardError(f"CSI must be (T, n_rx, n_tx, S), got {data.shape}")
    if times.shape != (data.shape[0],):
        raise GuardError(
            f"times must be ({data.shape[0]},), got {times.shape}"
        )
    report = GuardReport(policy=policy, n_input=data.shape[0], n_output=data.shape[0])
    if policy == "off":
        return trace, report
    if not np.issubdtype(data.dtype, np.complexfloating):
        if policy == "raise":
            raise GuardError(f"CSI must be complex, got dtype {data.dtype}")
        data = data.astype(np.complex64)

    mutated = data is not trace.data

    # -- timestamps: finite, strictly increasing, deduplicated ------------
    finite_ts = np.isfinite(times)
    if not finite_ts.all():
        report.nonfinite_timestamps = int(np.count_nonzero(~finite_ts))
        if policy == "raise":
            raise GuardError(
                f"{report.nonfinite_timestamps} packets carry non-finite timestamps"
            )
        data, times = data[finite_ts], times[finite_ts]
        mutated = True

    if times.size and not np.all(np.diff(times) > 0):
        if policy == "raise":
            raise GuardError("timestamps are not strictly increasing")
        if policy == "repair":
            order = np.argsort(times, kind="stable")
            report.reordered_repaired = int(np.count_nonzero(order != np.arange(times.size)))
            data, times = data[order], times[order]
            keep = np.concatenate([[True], np.diff(times) > 1e-12])
            report.duplicates_dropped = int(np.count_nonzero(~keep))
            data, times = data[keep], times[keep]
        else:  # drop: keep the increasing subsequence as packets arrive
            keep = np.zeros(times.size, dtype=bool)
            last = -np.inf
            for k in range(times.size):
                if times[k] > last:
                    keep[k] = True
                    last = times[k]
            dropped = int(np.count_nonzero(~keep))
            report.dropped_nonmonotonic = dropped
            data, times = data[keep], times[keep]
        mutated = True

    # -- truncated packets: partial tone corruption -> clean loss ---------
    nan_tones = np.isnan(data.real) | np.isnan(data.imag)
    slot_nan = nan_tones.any(axis=(2, 3))
    slot_all_nan = nan_tones.all(axis=(2, 3))
    truncated = slot_nan & ~slot_all_nan
    if truncated.any():
        report.truncated_packets = int(np.count_nonzero(truncated.any(axis=1)))
        if policy == "raise":
            raise GuardError(
                f"{report.truncated_packets} packets are partially corrupt (truncated)"
            )
        if policy == "drop":
            keep = ~truncated.any(axis=1)
            data, times = data[keep], times[keep]
            slot_all_nan = slot_all_nan[keep]
        else:
            data = np.array(data, copy=True)
            data[truncated] = np.nan + 1j * np.nan
            slot_all_nan = slot_all_nan | truncated
        mutated = True

    # -- chain liveness: detect and mask dead RX chains -------------------
    t = data.shape[0]
    if t:
        liveness = 1.0 - slot_all_nan.mean(axis=0)
    else:
        liveness = np.ones(data.shape[1])
    report.chain_liveness = liveness
    dead = [int(c) for c in np.nonzero(liveness < min_chain_liveness)[0]]
    report.dead_chains = dead
    if dead:
        if policy == "raise":
            raise GuardError(
                f"RX chains {dead} are dead "
                f"(liveness {[round(float(liveness[c]), 3) for c in dead]} "
                f"< {min_chain_liveness})"
            )
        if not slot_all_nan[:, dead].all():
            data = np.array(data, copy=True)
            data[:, dead] = np.nan + 1j * np.nan
            mutated = True
    live = [c for c in range(data.shape[1]) if c not in dead]
    if live and t:
        report.loss_rate = float(slot_all_nan[:, live].mean())
    elif t:
        report.loss_rate = 1.0

    # -- clock drift: resample onto the nominal grid ----------------------
    if t >= 2:
        if nominal_rate is None and trace.trajectory.n_samples >= 2:
            nominal_rate = trace.trajectory.sampling_rate
        if nominal_rate and nominal_rate > 0:
            median_dt = float(np.median(np.diff(times)))
            drift = median_dt * nominal_rate - 1.0
            report.drift_estimate = drift
            if abs(drift) > max_clock_drift:
                if policy == "raise":
                    raise GuardError(
                        f"sampling clock drifted {drift * 1e6:.0f} ppm from the "
                        f"nominal {nominal_rate:g} Hz grid"
                    )
                times = times[0] + np.arange(t) / nominal_rate
                report.clock_resampled = True
                mutated = True

    report.n_output = t
    if not mutated:
        return trace, report

    logger.info(
        "guard[%s]: %d -> %d packets, repairs=%s, dead_chains=%s",
        policy,
        report.n_input,
        report.n_output,
        report.repairs(),
        report.dead_chains,
    )
    trajectory = _project_trajectory(trace.trajectory, times)
    guarded = replace(trace, data=data, times=times, trajectory=trajectory)
    return guarded, report


class StreamGuard:
    """Per-packet admission control in front of ``StreamingRim.push``.

    Unlike the batch guard, a stream cannot be sorted — a late packet's
    slot has already been emitted — so ``repair`` at the stream level means
    *drop* late/duplicate packets and *mask* truncated ones, keeping the
    admitted sequence strictly monotonic.

    Args:
        policy: ``"raise"``, ``"drop"``, or ``"repair"``.
        epsilon: Timestamps within this of the previous one count as
            duplicates rather than reordering.
    """

    def __init__(self, policy: str = "repair", epsilon: float = 1e-9):
        if policy not in GUARD_POLICIES:
            raise ValueError(f"unknown guard policy {policy!r}; want one of {GUARD_POLICIES}")
        self.policy = policy
        self.epsilon = float(epsilon)
        self.last_timestamp = -np.inf
        self._counters: Dict[str, int] = {
            "duplicates_dropped": 0,
            "dropped_nonmonotonic": 0,
            "nonfinite_timestamps": 0,
            "truncated_packets": 0,
        }

    def admit(
        self, packet: np.ndarray, timestamp: float
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Check one packet; return ``(packet, timestamp)`` or None if rejected.

        Raises:
            GuardError: Under ``policy="raise"`` for any fault.
        """
        if self.policy == "off":
            self.last_timestamp = timestamp
            return packet, timestamp
        if not np.isfinite(timestamp):
            return self._reject("nonfinite_timestamps", "non-finite timestamp")
        if timestamp <= self.last_timestamp:
            if timestamp > self.last_timestamp - self.epsilon:
                return self._reject(
                    "duplicates_dropped", f"duplicate timestamp {timestamp!r}"
                )
            return self._reject(
                "dropped_nonmonotonic",
                f"timestamp {timestamp!r} precedes {self.last_timestamp!r}",
            )
        packet = np.asarray(packet)
        if not np.issubdtype(packet.dtype, np.complexfloating):
            if self.policy == "raise":
                raise GuardError(f"packet must be complex, got dtype {packet.dtype}")
            packet = packet.astype(np.complex64)
        nan_tones = np.isnan(packet.real) | np.isnan(packet.imag)
        partial = nan_tones.any(axis=(1, 2)) & ~nan_tones.all(axis=(1, 2))
        if partial.any():
            self._counters["truncated_packets"] += 1
            if self.policy == "raise":
                raise GuardError("packet is partially corrupt (truncated)")
            packet = np.array(packet, copy=True)
            packet[partial] = np.nan + 1j * np.nan
        self.last_timestamp = float(timestamp)
        return packet, float(timestamp)

    def _reject(self, counter: str, message: str) -> None:
        self._counters[counter] += 1
        if self.policy == "raise":
            raise GuardError(message)
        logger.debug("stream guard rejected packet: %s", message)
        return None

    def drain_counters(self) -> Dict[str, int]:
        """Return and reset the repair counters (per-block telemetry)."""
        out = {k: v for k, v in self._counters.items() if v}
        for k in self._counters:
            self._counters[k] = 0
        return out

    def state_dict(self) -> Dict[str, object]:
        """Serializable admission state (checkpoint/resume support).

        Captures the monotonicity watermark and the not-yet-drained repair
        counters, so a resumed stream rejects exactly the packets the
        uninterrupted one would and its next health report carries the
        same counts.
        """
        return {
            "policy": self.policy,
            "last_timestamp": float(self.last_timestamp),
            "counters": dict(self._counters),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output (policy must match)."""
        if state.get("policy") != self.policy:
            raise ValueError(
                f"checkpoint guard policy {state.get('policy')!r} does not "
                f"match this stream's {self.policy!r}"
            )
        self.last_timestamp = float(state["last_timestamp"])  # type: ignore[arg-type]
        for key in self._counters:
            self._counters[key] = int(state["counters"].get(key, 0))  # type: ignore[union-attr]


def _project_trajectory(trajectory: Trajectory, times: np.ndarray) -> Trajectory:
    """Re-interpolate ground truth onto the guarded timestamps.

    The guard never invents motion: positions and orientations are linearly
    interpolated (and edge-clamped) at the surviving packet times, so
    evaluation against truth remains meaningful after repairs.
    """
    src = trajectory.times
    if times.size == trajectory.n_samples and np.array_equal(src, times):
        return trajectory
    if times.size < 2 or trajectory.n_samples < 2:
        return trajectory
    positions = np.column_stack(
        [np.interp(times, src, trajectory.positions[:, k]) for k in range(2)]
    )
    orientations = np.interp(times, src, trajectory.orientations)
    return Trajectory(times=times, positions=positions, orientations=orientations)
