"""TRRS (alignment) matrices (§3.2, Eqn. 5; Fig. 5).

For an antenna pair (i, j) the alignment matrix holds, for every time t and
lag l ∈ [-W, W], the virtual-massive-antenna TRRS between the multipath
profile of antenna i at t and that of antenna j at t - l:

    G[t, l] = κ(P_i(t), P_j(t - l))        (Eqns. 4-5)

Because Eqn. 4 averages κ̄ over a window of *consecutive* snapshot offsets,
G is exactly the single-snapshot TRRS matrix smoothed along the time axis
per lag column — so we compute the banded single-snapshot matrix with one
vectorized inner product per lag and then apply a NaN-aware moving average.
That identity turns an O(T·W·V) kernel into O(T·W) plus a cheap filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.trrs import normalize_csi, normalized_inner_trrs


@dataclass
class AlignmentMatrix:
    """A per-pair TRRS matrix over time and lag.

    Attributes:
        values: (T, L) TRRS values; NaN where the lag reaches outside the
            trace or a packet was lost.
        lags: (L,) integer sample lags, -W..W.
        sampling_rate: Packets per second (to convert lags to seconds).
        pair: (i, j) antenna indices this matrix belongs to (informational;
            averaged matrices keep the first pair of their group).
    """

    values: np.ndarray
    lags: np.ndarray
    sampling_rate: float
    pair: tuple

    @property
    def n_samples(self) -> int:
        return int(self.values.shape[0])

    @property
    def max_lag(self) -> int:
        return int(self.lags[-1])

    def lag_index(self, lag: int) -> int:
        """Column index of an integer lag."""
        idx = lag + self.max_lag
        if not 0 <= idx < len(self.lags):
            raise ValueError(f"lag {lag} outside ±{self.max_lag}")
        return idx

    def lag_seconds(self) -> np.ndarray:
        """Lags converted to seconds."""
        return self.lags / self.sampling_rate


def nan_moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average along axis 0, skipping NaNs.

    Args:
        x: (T, ...) data.
        window: Number of samples averaged (>=1); rounded up to odd.

    Returns:
        Array of the same shape; positions whose window holds no finite
        value are NaN.
    """
    if window <= 1:
        return np.asarray(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    half = window // 2
    mask = np.isfinite(x)
    filled = np.where(mask, x, 0.0)

    csum = np.cumsum(filled, axis=0)
    ccnt = np.cumsum(mask, axis=0)
    pad = np.zeros((1,) + x.shape[1:])
    csum = np.concatenate([pad, csum], axis=0)
    ccnt = np.concatenate([pad, ccnt], axis=0)

    t = x.shape[0]
    hi = np.minimum(np.arange(t) + half + 1, t)
    lo = np.maximum(np.arange(t) - half, 0)
    totals = csum[hi] - csum[lo]
    counts = ccnt[hi] - ccnt[lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = totals / counts
    return np.where(counts > 0, out, np.nan)


def base_trrs_matrix(
    norm_i: np.ndarray,
    norm_j: np.ndarray,
    max_lag: int,
    time_stride: int = 1,
) -> np.ndarray:
    """Single-snapshot TX-averaged TRRS for every (time, lag) cell.

    Args:
        norm_i, norm_j: (T, n_tx, S) tone-normalized CFR sequences (see
            :func:`repro.core.trrs.normalize_csi`).
        max_lag: W; lags run -W..W.
        time_stride: Evaluate every ``time_stride``-th row only (used for
            the cheap pre-detection screen); skipped rows are NaN.

    Returns:
        (T, 2W+1) float64 matrix.
    """
    if norm_i.shape != norm_j.shape:
        raise ValueError(f"shape mismatch: {norm_i.shape} vs {norm_j.shape}")
    t = norm_i.shape[0]
    n_lags = 2 * max_lag + 1
    out = np.full((t, n_lags), np.nan)

    rows = np.arange(0, t, time_stride) if time_stride > 1 else None
    for col, lag in enumerate(range(-max_lag, max_lag + 1)):
        if lag >= 0:
            ti = slice(lag, t)
            tj = slice(0, t - lag)
        else:
            ti = slice(0, t + lag)
            tj = slice(-lag, t)
        if ti.stop is not None and ti.stop <= (ti.start or 0):
            continue
        a = norm_i[ti]
        b = norm_j[tj]
        if rows is not None:
            stop = ti.stop if ti.stop is not None else t
            valid = rows[(rows >= (ti.start or 0)) & (rows < stop)]
            if valid.size == 0:
                continue
            out[valid, col] = normalized_inner_trrs(norm_i[valid], norm_j[valid - lag])
        else:
            out[ti, col] = normalized_inner_trrs(a, b)
    return out


def alignment_matrix(
    csi_i: np.ndarray,
    csi_j: np.ndarray,
    max_lag: int,
    virtual_window: int,
    sampling_rate: float,
    pair: tuple = (-1, -1),
    time_stride: int = 1,
    normalized: bool = False,
) -> AlignmentMatrix:
    """Build the alignment matrix of one antenna pair (Eqn. 5).

    Args:
        csi_i, csi_j: (T, n_tx, S) CFR sequences of the two antennas
            (sanitized).  Pass ``normalized=True`` when already normalized.
        max_lag: Window half-width W in samples; must exceed the largest
            expected alignment delay (§3.2).
        virtual_window: Number of virtual massive antennas V (Eqn. 4).
        sampling_rate: Packet rate, Hz.
        pair: Antenna indices, recorded for diagnostics.
        time_stride: Row subsampling for pre-detection screens.
        normalized: Skip the normalization step.

    Returns:
        The :class:`AlignmentMatrix`.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if virtual_window < 1:
        raise ValueError(f"virtual_window must be >= 1, got {virtual_window}")
    t = int(np.asarray(csi_i).shape[0])
    n_lags = 2 * max_lag + 1
    with obs.span("alignment_matrix"):
        norm_i = csi_i if normalized else normalize_csi(csi_i)
        norm_j = csi_j if normalized else normalize_csi(csi_j)
        base = base_trrs_matrix(norm_i, norm_j, max_lag, time_stride=time_stride)
        if virtual_window > 1 and time_stride == 1:
            values = nan_moving_average(base, virtual_window)
        else:
            values = base
        obs.add("alignment.matrices", 1)
        obs.add("alignment.cells", len(range(0, t, max(1, time_stride))) * n_lags)
        lags = np.arange(-max_lag, max_lag + 1)
        return AlignmentMatrix(
            values=values, lags=lags, sampling_rate=sampling_rate, pair=pair
        )


def average_matrices(matrices: Sequence[AlignmentMatrix]) -> AlignmentMatrix:
    """NaN-aware average of alignment matrices of parallel isometric pairs.

    Parallel isometric pairs share the same alignment delays for any
    translation, so averaging their matrices boosts SNR (§4.2).
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    first = matrices[0]
    for m in matrices[1:]:
        if m.values.shape != first.values.shape or m.max_lag != first.max_lag:
            raise ValueError("matrices must share shape and lag window")
    # Accumulate totals/counts in place instead of stacking all members
    # first: no (N, T, L) intermediate, one scratch buffer reused per
    # member.  Sequential accumulation matches nanmean's reduction order
    # for the small group sizes arrays produce, so values are unchanged.
    acc = np.zeros_like(first.values, dtype=np.float64)
    count = np.zeros(first.values.shape, dtype=np.int64)
    scratch = np.empty_like(acc)
    for m in matrices:
        finite = np.isfinite(m.values)
        np.copyto(scratch, m.values)
        np.copyto(scratch, 0.0, where=~finite)
        acc += scratch
        count += finite
    with np.errstate(invalid="ignore"):
        acc /= count  # all-NaN cells: 0/0 -> NaN, matching nanmean
    return AlignmentMatrix(
        values=acc,
        lags=first.lags.copy(),
        sampling_rate=first.sampling_rate,
        pair=first.pair,
    )
