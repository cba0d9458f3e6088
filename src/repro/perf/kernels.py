"""TRRS kernel backends: the batched alignment hot path.

The alignment matrices of §3.2 dominate ``Rim.process`` wall time (see
``perf.alignment_busy_s`` in ``perfbench/run.py --trace 1``).  The serial
path builds each pair's banded matrix
with one complex einsum per lag *per pair*; this module restructures the
work around a shared cell store and two batched kernels: contiguous row
runs are reduced by BLAS band GEMMs (the complex inner product fused
into **one** real GEMM per pair over interleaved re/im operands, Re and
Im landing in alternating result columns — see
:meth:`BaseRowStore.real_views`), and scattered strided rows are
gathered per lag column and reduced with one einsum across **all**
requested pairs at once.  The backend also serves the ``track_paths``
capability — DP peak tracking (§4.2) batched across every matrix of a
group at once (:mod:`repro.perf.dptrack`) — and an opt-in ``float32``
precision for both kernels (``RimConfig.kernel_dtype``).

The batched backend additionally keeps a per-trace :class:`BaseRowStore`
of computed cells, which buys two kinds of reuse:

* the strided ``virtual_window=1`` rows computed by the pre-detection
  screen (§4.3) are *not* recomputed when the full tracking pass later
  needs the same pair at full resolution;
* :class:`~repro.core.streaming.StreamingRim` seeds the store with the
  previous block's rows (see :mod:`repro.perf.streamcache`), so only the
  cells involving newly pushed samples are evaluated per block;
* a pair and its reverse share one band: TRRS is symmetric, so
  ``G_ji[t, l] = G_ij[t - l, -l]`` and only the ``i < j`` orientation is
  computed and stored (hexagonal arrays request both, because
  ``parallel_groups`` flips members onto a shared ray and the ring is
  ordered by angle).

Every backend must be numerically equivalent to ``reference``: NaN
propagation from lost packets is identical cell for cell, and values
agree within 1e-9 (the GEMM accumulation order differs from einsum's by
a few float64 ulps, as does a reversed pair's conjugated inner product;
the gather kernel is bit-identical).
``tests/test_kernel_backends.py`` enforces this on clean and
fault-injected traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.alignment import (
    AlignmentMatrix,
    alignment_matrix,
    nan_moving_average,
)
from repro.core.tracking import TrackedPath, finalize_path, track_peaks
from repro.perf.dptrack import dp_track_batch


class KernelBackend:
    """Interface every kernel backend implements.

    A backend turns batched *pair-matrix requests* into
    :class:`~repro.core.alignment.AlignmentMatrix` lists.  One *store*
    (an opaque per-trace object from :meth:`make_store`) is threaded
    through all requests of a single ``Rim.process`` call so backends
    can reuse work across pipeline stages.
    """

    name = "abstract"

    def make_store(self, norm: np.ndarray, max_lag: int):
        """Per-trace state for one pipeline run over ``norm`` (T,R,K,S)."""
        raise NotImplementedError

    def matrices(
        self,
        store,
        pairs: Sequence,
        *,
        virtual_window: int,
        sampling_rate: float,
        time_stride: int = 1,
    ) -> List[AlignmentMatrix]:
        """Alignment matrices for ``pairs``, batched however the backend likes."""
        raise NotImplementedError

    def seed_store(self, store, cache, offset: int) -> None:
        """Pre-populate ``store`` from a cross-block cache (no-op by default)."""

    def export_store(self, store, cache, offset: int) -> None:
        """Publish ``store`` rows into a cross-block cache (no-op by default)."""

    def track_paths(
        self,
        matrices: Sequence[AlignmentMatrix],
        *,
        transition_weight: float,
        refine: bool = True,
    ) -> List[TrackedPath]:
        """DP peak tracking for a batch of alignment matrices (§4.2).

        The default implementation is the oracle: one reference
        :func:`~repro.core.tracking.track_peaks` recursion per matrix.
        Batched backends may track the whole stack in one pass; whatever
        they do must reproduce the reference paths bit for bit (same
        candidate sums, same first-index argmax tie-breaks).
        """
        return [
            track_peaks(m, transition_weight=transition_weight, refine=refine)
            for m in matrices
        ]


class ReferenceBackend(KernelBackend):
    """The original serial per-pair path — the numerical oracle.

    Delegates every pair to :func:`repro.core.alignment.alignment_matrix`
    exactly as the pipeline did before backends existed, including its
    per-pair ``alignment_matrix`` obs spans and work counters.  No reuse,
    no caching: what this backend computes is what every other backend
    must reproduce bit for bit.
    """

    name = "reference"

    class _Store:
        __slots__ = ("norm", "max_lag")

        def __init__(self, norm, max_lag):
            self.norm = norm
            self.max_lag = max_lag

    def make_store(self, norm, max_lag):
        return self._Store(norm, max_lag)

    def matrices(self, store, pairs, *, virtual_window, sampling_rate, time_stride=1):
        return [
            alignment_matrix(
                store.norm[:, p.i],
                store.norm[:, p.j],
                max_lag=store.max_lag,
                virtual_window=virtual_window,
                sampling_rate=sampling_rate,
                pair=(p.i, p.j),
                time_stride=time_stride,
                normalized=True,
            )
            for p in pairs
        ]


def canonical_pair(i: int, j: int) -> Tuple[Tuple[int, int], bool]:
    """Store key of pair ``(i, j)`` and whether the request is reversed."""
    return ((j, i), True) if i > j else ((i, j), False)


class BaseRowStore:
    """Per-trace store of computed base-TRRS cells for antenna pairs.

    For each pair key ``(i, j)`` with ``i < j`` it holds a ``(T, 2W+1)``
    value matrix (NaN where never computed or outside the lag band) and a
    boolean ``known`` mask of the same shape marking cells that have been
    evaluated.  Requests only compute cells that are requested, inside
    the band, and not yet known — which is what makes pre-screen rows,
    cross-stage rows, and cross-block seeded rows free.  A request for
    ``(j, i)`` reads the ``(i, j)`` band through :meth:`oriented`.
    """

    def __init__(self, norm: np.ndarray, max_lag: int, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported kernel dtype {dtype!r}")
        cdtype = np.complex64 if self.dtype == np.float32 else np.complex128
        self.norm = norm if norm.dtype == cdtype else norm.astype(cdtype)
        self.cdtype = np.dtype(cdtype)
        self.max_lag = int(max_lag)
        self.t = int(norm.shape[0])
        self.n_lags = 2 * self.max_lag + 1
        self.values: Dict[Tuple[int, int], np.ndarray] = {}
        self.known: Dict[Tuple[int, int], np.ndarray] = {}
        self._band: Optional[np.ndarray] = None
        self._real: Optional[np.ndarray] = None
        self._fused: Optional[np.ndarray] = None

    def entry(self, key: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        """The (values, known) arrays of ``key``, created NaN/False on miss."""
        if key not in self.values:
            self.values[key] = np.full((self.t, self.n_lags), np.nan, dtype=self.dtype)
            self.known[key] = np.zeros((self.t, self.n_lags), dtype=bool)
        return self.values[key], self.known[key]

    def oriented(self, i: int, j: int) -> np.ndarray:
        """The stored band of pair ``(i, j)`` in the requested orientation.

        The ``i < j`` band itself, or, for a reversed request, a fresh
        gather of it: ``G_ji[t, l] = kappa(P_j(t), P_i(t - l)) =
        G_ij[t - l, -l]``, NaN where ``t - l`` leaves the trace — the same
        band mask.  The gather is a skewed view: padding the band with W
        NaN rows on each side, ``skew[r, c] = pad[r + c, c]`` is
        ``G_ij[r + c - W, c]``, and its reversed columns are ``G_ji``.
        """
        key, reverse = canonical_pair(i, j)
        vals = self.values[key]
        if not reverse:
            return vals
        w = self.max_lag
        pad = np.full((self.t + 2 * w, self.n_lags), np.nan, dtype=self.dtype)
        pad[w : w + self.t] = vals
        s0, s1 = pad.strides
        skew = np.lib.stride_tricks.as_strided(
            pad, shape=vals.shape, strides=(s0, s0 + s1), writeable=False
        )
        return skew[:, ::-1].copy()

    def band(self) -> np.ndarray:
        """(T, 2W+1) mask of in-band cells: the partner sample t-l exists."""
        if self._band is None:
            partner = (
                np.arange(self.t)[:, None]
                - np.arange(-self.max_lag, self.max_lag + 1)[None, :]
            )
            self._band = (partner >= 0) & (partner < self.t)
        return self._band

    def real_views(self) -> Tuple[np.ndarray, np.ndarray]:
        """Interleaved real operands for the one-GEMM band kernel.

        Returns ``(real, fusedT)`` in the store's real dtype:

        * ``real``: ``(K, R, T, 2S)`` C-contiguous — ``real[k, a, t]``
          is snapshot ``(t, a, k)`` as interleaved ``re, im`` pairs, so
          a row-run slice ``real[:, i, r0:r1]`` is a zero-copy batched
          GEMM operand;
        * ``fusedT``: ``(K, R, 2S, T, 2)`` — the partner operand already
          transposed for the product.  Row ``2s`` holds tone ``s``
          itself (``z``) and row ``2s+1`` holds ``-i·z`` (i.e. ``im``
          and ``-re`` interleaved), so a window slice
          ``fusedT[:, j, :, u0:u1]`` reshapes (zero-copy, the last two
          axes are memory-adjacent) to ``(K, 2S, 2·nu)`` and one batched
          matmul per pair yields Re and Im as interleaved columns:
          ``Re⟨conj(x), y⟩`` in even, ``Im⟨conj(x), y⟩`` in odd ones.
        """
        if self._real is None:
            stacked = np.ascontiguousarray(self.norm.transpose(2, 1, 0, 3))
            real = stacked.view(self.dtype)
            k, r, t, s2 = real.shape
            # Built in the complex domain: -i·z IS the [im, -re]
            # interleave when viewed as reals, so two contiguous-chunk
            # assignments replace four strided ones.
            ct = np.empty((k, r, s2, t), dtype=self.cdtype)
            zt = stacked.transpose(0, 1, 3, 2)
            ct[:, :, 0::2, :] = zt
            np.multiply(zt, np.asarray(-1j, dtype=self.cdtype), out=ct[:, :, 1::2, :])
            self._real = real
            self._fused = ct.view(self.dtype).reshape(k, r, s2, t, 2)
        return self._real, self._fused


class BatchedBackend(KernelBackend):
    """Batched einsum kernels over a :class:`BaseRowStore`.

    Args:
        dtype: Kernel precision: ``"float64"`` (default) reproduces the
            reference oracle bit for bit / within the 1e-9 GEMM budget;
            ``"float32"`` opts in to single-precision TRRS and DP
            kernels with the documented error budget
            (``docs/performance.md``).
    """

    name = "batched"

    def __init__(self, dtype: str = "float64"):
        dtype = str(dtype)
        if dtype not in ("float64", "float32"):
            raise ValueError(f"unsupported kernel dtype {dtype!r}")
        self.dtype = np.dtype(np.float32 if dtype == "float32" else np.float64)

    def make_store(self, norm, max_lag):
        return BaseRowStore(norm, max_lag, dtype=self.dtype)

    def seed_store(self, store, cache, offset):
        cache.seed(store, offset)

    def export_store(self, store, cache, offset):
        cache.capture(store, offset)

    def track_paths(self, matrices, *, transition_weight, refine=True):
        """Batched DP tracking: one forward pass over the whole stack.

        Matrices are grouped by shape (one pipeline stage's matrices all
        share one) and each group runs through
        :func:`repro.perf.dptrack.dp_track_batch` — the pruned native
        kernel when available, the exact batched numpy recursion
        otherwise.  In float64 mode the paths are bit-identical to the
        reference oracle; in float32 mode the evidence is quantized once
        on entry and tracked at single precision.
        """
        matrices = list(matrices)
        if not matrices:
            return []
        if transition_weight >= 0:
            raise ValueError(
                f"transition weight ω must be negative, got {transition_weight}"
            )
        paths: List[Optional[TrackedPath]] = [None] * len(matrices)
        by_shape: Dict[Tuple[int, int], List[int]] = {}
        for idx, m in enumerate(matrices):
            by_shape.setdefault(m.values.shape, []).append(idx)
        for (t, n_lags), idxs in by_shape.items():
            if t == 0:
                empty = np.zeros(0)
                for idx in idxs:
                    paths[idx] = TrackedPath(
                        empty.astype(int), empty.astype(int), empty, empty, 0.0
                    )
                continue
            with obs.span("dp_tracking"):
                obs.add("dp.paths_tracked", len(idxs))
                obs.add("dp.cells", len(idxs) * t * n_lags)
                e = np.empty((len(idxs), t, n_lags), dtype=self.dtype)
                for s, idx in enumerate(idxs):
                    e[s] = matrices[idx].values
                np.copyto(e, 0.0, where=np.isnan(e))
                lag_idx, scores = dp_track_batch(e, transition_weight)
                for s, idx in enumerate(idxs):
                    paths[idx] = finalize_path(
                        matrices[idx], lag_idx[s], float(scores[s]), refine
                    )
        return paths

    def matrices(self, store, pairs, *, virtual_window, sampling_rate, time_stride=1):
        pairs = list(pairs)
        if not pairs:
            return []
        t, n_lags, w = store.t, store.n_lags, store.max_lag
        with obs.span("alignment_matrix"):
            rows = np.arange(0, t, time_stride) if time_stride > 1 else None
            fresh_cells = _compute_cells(store, pairs, rows)
            obs.add("alignment.matrices", len(pairs))
            obs.add("alignment.cells", fresh_cells)

            lags = np.arange(-w, w + 1)
            out = []
            for p in pairs:
                vals = store.oriented(p.i, p.j)
                if rows is not None:
                    # The store may know more rows than this strided request
                    # (seeded or computed by another stage); the reference
                    # semantics are "skipped rows are NaN", so mask them.
                    masked = np.full((t, n_lags), np.nan, dtype=vals.dtype)
                    masked[rows] = vals[rows]
                    values = masked
                elif virtual_window > 1:
                    values = nan_moving_average(vals, virtual_window)
                elif p.i > p.j:
                    values = vals  # already a fresh gather
                else:
                    values = vals.copy()
                out.append(
                    AlignmentMatrix(
                        values=values,
                        lags=lags,
                        sampling_rate=sampling_rate,
                        pair=(p.i, p.j),
                    )
                )
            return out


# Rows per BLAS band job.  The partner window spans chunk+2W columns, so
# the fraction of computed cells the band actually keeps falls as chunks
# grow ((chunk+2W)/(2W+1) waste); smaller chunks claw that back until
# dgemm's small-m efficiency loss wins.  At the default W=100 (K=3
# antennas, 2S=228, one BLAS thread, GEMM plus band extraction), a row
# cost 29.6, 31.4, 24.9, 25.6 and 35.8 us at 16, 24, 48, 96 and 192 rows
# per job, so 48 stays.  The per-job index prep that used to tax small
# chunks is memoized across jobs (it only depends on the chunk geometry,
# not its position).
_GEMM_CHUNK = 48
_MIN_GEMM_SPAN = 16  # narrower clusters fall back to the gather kernel
# The BLAS kernel is >10x cheaper per cell than the per-lag gather, so
# needed-row clusters separated by small gaps of already-known rows (the
# pre-screen's stride pattern) are merged and recomputed wholesale rather
# than handed to the gather kernel row by row.
_MERGE_GAP = 16


def _compute_cells(
    store: BaseRowStore,
    pairs: Sequence,
    rows: Optional[np.ndarray],
) -> int:
    """Evaluate all requested-but-unknown cells for ``pairs``; count them.

    Needs are tracked **per stored pair**: a pair whose requested cells
    are all known (seeded from the stream cache, or computed by an
    earlier stage's request) costs nothing even when it shares a request
    with a fresh pair.  A pair and its reverse share one stored band; a
    reversed pair reads it transposed (``G_ji[t, l] = G_ij[t - l, -l]``),
    which touches every row, so inside a strided request it needs the
    band at full rows.  Each stored pair's rows with at least one unknown
    requested in-band cell are split into contiguous runs.  Long runs go to the
    BLAS band kernel: one batched GEMM per (pair, run-chunk) against the
    ``[t-W, t+W]`` partner window produces the re/im inner products of
    every (row, lag) cell across all TX chains at once — dgemm turns the
    memory-bound per-lag reduction into a cache-blocked compute kernel
    several times faster than numpy's complex einsum.  Scattered rows
    (strided pre-screens) are gathered per lag column and reduced with
    one einsum across all pairs that need them.
    """
    t, n_lags, w = store.t, store.n_lags, store.max_lag
    all_rows = np.ones(t, dtype=bool)
    if rows is None:
        row_mask = all_rows
    else:
        row_mask = np.zeros(t, dtype=bool)
        row_mask[rows] = True
    wanted: Dict[Tuple[int, int], np.ndarray] = {}
    for p in pairs:
        key, reverse = canonical_pair(p.i, p.j)
        need = all_rows if reverse else row_mask
        prev = wanted.get(key)
        wanted[key] = need if prev is None else need | prev
    keys = list(wanted)
    entries = [store.entry(k) for k in keys]

    band = store.band()
    pair_needed = [
        band & wanted[k][:, None] & ~known for k, (_, known) in zip(keys, entries)
    ]
    fresh = int(sum(pn.sum() for pn in pair_needed))
    if fresh == 0:
        return 0

    gemm_jobs: List[Tuple[int, int, int]] = []  # (pair index, r0, r1)
    # Per-pair scattered needs; sc_needed[p] is None when pair p has no
    # scattered cells, so the einsum path can skip it entirely.
    sc_needed: List[Optional[np.ndarray]] = []
    for p_idx, pn in enumerate(pair_needed):
        pr = np.nonzero(pn.any(axis=1))[0]
        if pr.size == 0:
            sc_needed.append(None)
            continue
        splits = np.nonzero(np.diff(pr) > _MERGE_GAP)[0] + 1
        sc_mask = np.zeros(t, dtype=bool)
        for cluster in np.split(pr, splits):
            span0, span1 = int(cluster[0]), int(cluster[-1]) + 1
            if span1 - span0 >= _MIN_GEMM_SPAN:
                for r0 in range(span0, span1, _GEMM_CHUNK):
                    gemm_jobs.append((p_idx, r0, min(span1, r0 + _GEMM_CHUNK)))
            else:
                sc_mask[cluster] = True
        sc_needed.append(pn & sc_mask[:, None] if sc_mask.any() else None)

    lags_arr = np.arange(-w, w + 1)
    if gemm_jobs:
        real, fused_t = store.real_views()
        n_k, s2 = real.shape[0], real.shape[3]
    # Interior chunks of equal size share identical band geometry — the
    # index prep depends only on (rows, left offset, window width), so
    # one entry serves every job but the first/last.
    gemm_prep: Dict[Tuple[int, int, int], Tuple[np.ndarray, ...]] = {}
    for p_idx, r0, r1 in gemm_jobs:
        u0, u1 = max(0, r0 - w), min(t, r1 + w)
        nu = u1 - u0
        prep_key = (r1 - r0, r0 - u0, nu)
        prep = gemm_prep.get(prep_key)
        if prep is None:
            # C[r - r0, u - u0] maps to cell (r, lag) via u = r - lag.
            j_win = (np.arange(r1 - r0) + (r0 - u0))[:, None] - lags_arr[None, :]
            valid = (j_win >= 0) & (j_win < nu)
            jcol = np.clip(j_win, 0, nu - 1)
            ridx = np.arange(r1 - r0)[:, None]
            gemm_prep[prep_key] = prep = (valid, jcol, ridx)
        valid, jcol, ridx = prep
        i, j = keys[p_idx]
        values, known = entries[p_idx]
        # One batched GEMM over all K TX chains, both operands zero-copy
        # views: the transposed fused partner interleaves z with -i·z
        # rows, so the product's even columns are Re and its odd columns
        # Im of the complex inner product — the same dot rows the
        # two-GEMM form computed, from a single BLAS call.
        a = real[:, i, r0:r1]  # (K, rows, 2S)
        b = fused_t[:, j, :, u0:u1].reshape(n_k, s2, 2 * nu)
        out = a @ b  # (K, rows, 2nu)
        re = out[..., 0::2]
        im = out[..., 1::2]
        mag = re * re + im * im  # (K, rows, nu)
        acc = mag.sum(axis=0) if n_k > 1 else mag[0]
        acc /= n_k
        band_vals = acc[ridx, jcol]
        np.copyto(values[r0:r1], np.where(valid, band_vals, np.nan))
        known[r0:r1] |= valid

    # Per-lag gather for the scattered rows.  Only the scattered rows
    # are conjugated — a strided pre-screen touches a small subset of
    # the trace, and the gather kernel should stay O(that subset).
    sc_any = [sn for sn in sc_needed if sn is not None]
    if not sc_any:
        return fresh
    i_idx = [k[0] for k in keys]
    j_idx = [k[1] for k in keys]
    sc_union = sc_any[0].copy()
    for sn in sc_any[1:]:
        sc_union |= sn
    scat_rows = np.nonzero(sc_union.any(axis=1))[0]
    stack_i = np.conj(
        store.norm[np.ix_(scat_rows, i_idx)].transpose(1, 0, 2, 3)
    )  # (P, Rs, K, S)
    row_pos = np.zeros(t, dtype=np.intp)
    row_pos[scat_rows] = np.arange(scat_rows.size)
    for col in range(n_lags):
        rws = np.nonzero(sc_union[:, col])[0]
        if not rws.size:
            continue
        lag = col - w
        a = stack_i[:, row_pos[rws]].transpose(1, 0, 2, 3)  # (R, P, K, S)
        b = store.norm[np.ix_(rws - lag, j_idx)]
        inner = np.einsum("rpks,rpks->rpk", a, b)
        vals = (np.abs(inner) ** 2).mean(axis=-1)  # (R, P)
        for p_idx, (values, known) in enumerate(entries):
            # Write only this pair's own scattered needs: cells a GEMM
            # job owns (same pair, other rows) must have one writer.
            scn = sc_needed[p_idx]
            if scn is None:
                continue
            m = scn[rws, col]
            if not m.any():
                continue
            rsel = rws[m]
            values[rsel, col] = vals[m, p_idx]
            known[rsel, col] = True
    return fresh
