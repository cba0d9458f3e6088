"""Dynamic-programming TRRS peak tracking (§4.2, Eqns. 6-8; Fig. 8).

Column argmaxes of an alignment matrix are corrupted by measurement noise,
packet loss, and wagging movements.  RIM instead finds, per pair, the path
of lags that maximizes the accumulated score

    S(q_kl → q_jn) = e_kl + e_jn + ω·C(q_kl, q_jn),   C = |l - n| / (2W)

with ω < 0 punishing jumpy lag transitions — the moving speed (hence the
alignment delay) cannot fluctuate much between consecutive packets.  The
Bellman recursion (Eqn. 6) runs once forward with backpointers, then the
best terminal state is traced back (Eqn. 8).

``refine_lags`` adds sub-sample resolution by fitting a parabola through
the TRRS values around each tracked integer lag — this is what converts the
millimeter-level TRRS peak sharpness (Fig. 4) into sub-centimeter speed
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.alignment import AlignmentMatrix


@dataclass
class TrackedPath:
    """Result of DP peak tracking over an alignment matrix.

    Attributes:
        lag_indices: (T,) column index of the tracked peak per time step.
        lags: (T,) integer lags (lag_indices shifted by -W).
        refined_lags: (T,) sub-sample lags after parabolic refinement.
        path_trrs: (T,) TRRS value along the tracked path (NaN treated as 0
            during tracking but reported as NaN here).
        score: Total accumulated DP score of the optimal path.
    """

    lag_indices: np.ndarray
    lags: np.ndarray
    refined_lags: np.ndarray
    path_trrs: np.ndarray
    score: float


def track_peaks(
    matrix: AlignmentMatrix,
    transition_weight: float = -2.0,
    refine: bool = True,
) -> TrackedPath:
    """Track the alignment-delay peak sequence through a TRRS matrix.

    Args:
        matrix: The per-pair (possibly group-averaged) alignment matrix.
        transition_weight: ω of Eqn. 7 (must be negative): cost weight on
            lag jumps, normalized by the window width.
        refine: Apply parabolic sub-sample refinement.

    Returns:
        The optimal :class:`TrackedPath`.
    """
    if transition_weight >= 0:
        raise ValueError(f"transition weight ω must be negative, got {transition_weight}")
    # One owned copy with NaN -> 0 (lost packets carry no evidence, Eqn. 6).
    # Leaner than np.nan_to_num, which also scans for ±inf — TRRS values
    # are in [0, 1] or NaN, never infinite.
    e = np.array(matrix.values, dtype=np.float64)
    np.copyto(e, 0.0, where=np.isnan(e))
    if e.shape[0] == 0:
        empty = np.zeros(0)
        return TrackedPath(empty.astype(int), empty.astype(int), empty, empty, 0.0)

    with obs.span("dp_tracking"):
        return _track_peaks(matrix, e, transition_weight, refine)


def _track_peaks(
    matrix: AlignmentMatrix,
    e: np.ndarray,
    transition_weight: float,
    refine: bool,
) -> TrackedPath:
    t, n_lags = e.shape
    obs.add("dp.paths_tracked", 1)
    obs.add("dp.cells", t * n_lags)
    lag_axis = np.arange(n_lags)
    # ω·C(l, n) with C = |l-n| / (2W)  (2W = n_lags - 1 columns span).
    jump_cost = (
        transition_weight
        * np.abs(lag_axis[:, None] - lag_axis[None, :])
        / max(1, n_lags - 1)
    )

    score = e[0].copy()
    backptr = np.zeros((t, n_lags), dtype=np.int32)
    # The Bellman loop runs T times over an (L, L) candidate table; reusing
    # preallocated buffers keeps the loop free of large allocations.
    candidate = np.empty((n_lags, n_lags))
    base = np.empty(n_lags)
    for step in range(1, t):
        # Transition score from every l to every n (Eqn. 7): the e terms of
        # both endpoints plus the jump penalty.
        np.add(score, e[step - 1], out=base)
        np.add(base[:, None], jump_cost, out=candidate)
        best_prev = np.argmax(candidate, axis=0)
        backptr[step] = best_prev
        np.add(candidate[best_prev, lag_axis], e[step], out=score)

    lag_indices = np.empty(t, dtype=np.int64)
    lag_indices[-1] = int(np.argmax(score))
    for step in range(t - 1, 0, -1):
        lag_indices[step - 1] = backptr[step, lag_indices[step]]

    return finalize_path(matrix, lag_indices, float(np.max(score)), refine)


def finalize_path(
    matrix: AlignmentMatrix,
    lag_indices: np.ndarray,
    score: float,
    refine: bool,
) -> TrackedPath:
    """Assemble a :class:`TrackedPath` from tracked integer lag columns.

    Shared by the reference recursion above and the batched DP kernels
    (:mod:`repro.perf.dptrack`): everything downstream of the forward
    pass — lag shifting, path-TRRS gathering, parabolic refinement — is
    identical regardless of which kernel produced ``lag_indices``.
    """
    t = lag_indices.size
    lags = lag_indices - matrix.max_lag
    path_trrs = matrix.values[np.arange(t), lag_indices]
    refined = (
        refine_lags(matrix.values, lag_indices) - matrix.max_lag
        if refine
        else lags.astype(np.float64)
    )
    return TrackedPath(
        lag_indices=lag_indices,
        lags=lags,
        refined_lags=refined,
        path_trrs=path_trrs,
        score=float(score),
    )


def greedy_argmax_path(matrix: AlignmentMatrix) -> TrackedPath:
    """Per-column argmax baseline (the 'ideal case' of §4.2) — no smoothing.

    Used by the ablation bench to show what DP tracking buys.
    """
    e = np.nan_to_num(matrix.values, nan=0.0)
    t = e.shape[0]
    lag_indices = np.argmax(e, axis=1).astype(np.int64)
    lags = lag_indices - matrix.max_lag
    path_trrs = matrix.values[np.arange(t), lag_indices]
    refined = refine_lags(matrix.values, lag_indices) - matrix.max_lag
    return TrackedPath(
        lag_indices=lag_indices,
        lags=lags,
        refined_lags=refined,
        path_trrs=path_trrs,
        score=float(np.nansum(path_trrs)),
    )


def refine_lags(values: np.ndarray, lag_indices: np.ndarray) -> np.ndarray:
    """Sub-sample peak positions via 3-point parabolic interpolation.

    Args:
        values: (T, L) TRRS matrix.
        lag_indices: (T,) integer peak columns.

    Returns:
        (T,) float column positions; clamped to ±0.5 around the integer
        peak, falling back to the integer position at matrix borders or
        around NaNs.
    """
    t, n_lags = values.shape
    out = lag_indices.astype(np.float64)
    interior = (lag_indices > 0) & (lag_indices < n_lags - 1)
    idx = np.nonzero(interior)[0]
    if idx.size == 0:
        return out
    center = values[idx, lag_indices[idx]]
    left = values[idx, lag_indices[idx] - 1]
    right = values[idx, lag_indices[idx] + 1]
    denom = left - 2.0 * center + right
    valid = np.isfinite(denom) & np.isfinite(left) & np.isfinite(right) & (np.abs(denom) > 1e-12)
    shift = np.zeros_like(center)
    shift[valid] = 0.5 * (left[valid] - right[valid]) / denom[valid]
    shift = np.clip(shift, -0.5, 0.5)
    out[idx] = lag_indices[idx] + shift
    return out
