"""Unit tests for DP peak tracking (Eqns. 6-8) and sub-sample refinement."""

import numpy as np
import pytest

from repro import Rim, RimConfig
from repro.core.alignment import AlignmentMatrix
from repro.core.tracking import greedy_argmax_path, refine_lags, track_peaks
from repro.perf import dptrack
from repro.perf.dptrack import dp_track_batch, native_available


def _matrix(values, fs=100.0):
    values = np.asarray(values, dtype=np.float64)
    w = (values.shape[1] - 1) // 2
    return AlignmentMatrix(
        values=values, lags=np.arange(-w, w + 1), sampling_rate=fs, pair=(0, 1)
    )


def _peaky(t, n_lags, path, peak=1.0, floor=0.1, rng=None):
    """Synthesize a matrix with a known peak path plus optional noise."""
    values = np.full((t, n_lags), floor)
    if rng is not None:
        values += rng.uniform(0, 0.1, (t, n_lags))
    for k, idx in enumerate(path):
        values[k, idx] = peak
    return values


class TestTrackPeaks:
    def test_recovers_constant_path(self):
        path = [7] * 20
        m = _matrix(_peaky(20, 11, path))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lag_indices, path)

    def test_recovers_drifting_path(self):
        path = [2 + k // 4 for k in range(20)]
        m = _matrix(_peaky(20, 11, path))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lag_indices, path)

    def test_rejects_single_outlier(self, rng):
        """A one-sample glitch peak should not yank the path (the point of
        the jump cost ω, §4.2)."""
        path = [5] * 30
        values = _peaky(30, 11, path, rng=rng)
        values[15, 5] = 0.2  # true peak weak at t=15...
        values[15, 0] = 1.0  # ...glitch at a distant lag
        out = track_peaks(_matrix(values), transition_weight=-2.0)
        assert out.lag_indices[15] == 5

    def test_greedy_takes_the_outlier(self, rng):
        path = [5] * 30
        values = _peaky(30, 11, path, rng=rng)
        values[15, 5] = 0.2
        values[15, 0] = 1.0
        out = greedy_argmax_path(_matrix(values))
        assert out.lag_indices[15] == 0

    def test_lags_are_shifted_indices(self):
        path = [8] * 5
        m = _matrix(_peaky(5, 11, path))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lags, np.array(path) - 5)

    def test_sign_flip_tracked(self):
        up = [8] * 15
        down = [2] * 15
        values = np.vstack([_peaky(15, 11, up), _peaky(15, 11, down)])
        out = track_peaks(_matrix(values))
        assert (out.lags[:10] > 0).all()
        assert (out.lags[-10:] < 0).all()

    def test_nan_treated_as_zero_evidence(self):
        path = [5] * 20
        values = _peaky(20, 11, path)
        values[8] = np.nan
        out = track_peaks(_matrix(values))
        # Path continues straight through the hole.
        assert out.lag_indices[8] == 5
        assert np.isnan(out.path_trrs[8])

    def test_requires_negative_weight(self):
        m = _matrix(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            track_peaks(m, transition_weight=0.5)

    def test_empty_matrix(self):
        m = _matrix(np.zeros((0, 5)))
        out = track_peaks(m)
        assert out.lags.size == 0

    def test_score_is_sum_along_path(self):
        path = [3] * 4
        m = _matrix(_peaky(4, 7, path, peak=1.0, floor=0.0))
        out = track_peaks(m, transition_weight=-1.0)
        # 4 e-terms at t plus 3 e-terms at t-1 per transition = e totals:
        # score = e[0] + sum over steps (e[t-1] + e[t]) = 1 + 3*(1+1) = 7.
        assert out.score == pytest.approx(7.0)

    def test_single_time_step(self):
        """t == 1: no transitions, the path is the row argmax."""
        m = _matrix(np.array([[0.1, 0.2, 0.9, 0.3, 0.1]]))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lag_indices, [2])
        assert out.score == pytest.approx(0.9)

    def test_single_lag_column(self):
        """n_lags == 1: the only path is column 0 at every step."""
        values = np.array([[0.4], [0.5], [0.6]])
        out = track_peaks(_matrix(values))
        np.testing.assert_array_equal(out.lag_indices, [0, 0, 0])
        np.testing.assert_array_equal(out.lags, [0, 0, 0])
        assert out.score == pytest.approx(0.4 + (0.4 + 0.5) + (0.5 + 0.6))

    def test_all_nan_lag_column_never_tracked(self):
        """A lag whose column is all NaN carries zero evidence and loses
        to any positive-evidence column."""
        path = [5] * 12
        values = _peaky(12, 11, path)
        values[:, 8] = np.nan
        out = track_peaks(_matrix(values))
        assert not (out.lag_indices == 8).any()
        np.testing.assert_array_equal(out.lag_indices, path)

    def test_tie_matrix_first_index_wins(self):
        """A constant matrix ties everywhere; np.argmax semantics pick the
        first (lowest-index) column and the zero-jump transition."""
        out = track_peaks(_matrix(np.full((6, 9), 0.5)))
        np.testing.assert_array_equal(out.lag_indices, np.zeros(6, dtype=int))


class TestRefineLags:
    def test_symmetric_peak_unchanged(self):
        values = np.array([[0.2, 1.0, 0.2]])
        out = refine_lags(values, np.array([1]))
        assert out[0] == pytest.approx(1.0)

    def test_asymmetric_peak_shifts_towards_heavier_side(self):
        values = np.array([[0.2, 1.0, 0.6]])
        out = refine_lags(values, np.array([1]))
        assert 1.0 < out[0] < 1.5

    def test_exact_parabola_vertex(self):
        # y = 1 - (x - 0.3)^2 sampled at x = -1, 0, 1 around index 1.
        xs = np.array([-1.0, 0.0, 1.0])
        ys = 1 - (xs - 0.3) ** 2
        out = refine_lags(ys[None, :], np.array([1]))
        assert out[0] == pytest.approx(1.3, abs=1e-9)

    def test_border_peak_not_refined(self):
        values = np.array([[1.0, 0.5, 0.2]])
        out = refine_lags(values, np.array([0]))
        assert out[0] == 0.0

    def test_nan_neighbor_not_refined(self):
        values = np.array([[np.nan, 1.0, 0.5]])
        out = refine_lags(values, np.array([1]))
        assert out[0] == 1.0

    def test_shift_clamped_to_half(self):
        values = np.array([[0.999, 1.0, 0.9999]])
        out = refine_lags(values, np.array([1]))
        assert abs(out[0] - 1.0) <= 0.5


# -- batched DP kernel vs the reference recursion ----------------------------


def _oracle(stack, transition_weight=-2.0):
    """Per-matrix reference answers for an evidence stack (NaNs allowed)."""
    idx, scores = [], []
    for values in stack:
        out = track_peaks(
            _matrix(values), transition_weight=transition_weight, refine=False
        )
        idx.append(out.lag_indices)
        scores.append(out.score)
    return np.asarray(idx), np.asarray(scores)


def _zeroed(stack):
    """NaN -> 0, exactly as track_peaks prepares its evidence."""
    e = np.array(stack, dtype=np.float64)
    np.copyto(e, 0.0, where=np.isnan(e))
    return e


@pytest.fixture(params=["native", "numpy"])
def dp_impl(request, monkeypatch):
    """Run dp_track_batch once with the compiled kernel, once without."""
    if request.param == "native":
        if not native_available():
            pytest.skip("no C compiler available for the native DP kernel")
    else:
        monkeypatch.setattr(dptrack, "_load_native", lambda: None)
    return request.param


@pytest.fixture(scope="module")
def production_stack(hex_line_trace):
    """L = 201 evidence: every matrix ``Rim`` tracks on a hexagonal walk at
    the default max_lag (group averages and ring pairs)."""
    result = Rim(RimConfig()).process(hex_line_trace)
    tracks = result.group_tracks + result.ring_tracks
    stack = np.stack([trk.matrix.values for trk in tracks])
    assert stack.shape[2] == 2 * RimConfig().max_lag + 1 == 201
    return stack


class TestBatchedDPMatchesReference:
    """dp_track_batch must be bit-identical to the reference recursion:
    same candidate sums, same first-index tie-breaks, same scores."""

    def _check(self, stack, transition_weight=-2.0):
        want_idx, want_scores = _oracle(stack, transition_weight)
        got_idx, got_scores = dp_track_batch(_zeroed(stack), transition_weight)
        np.testing.assert_array_equal(got_idx, want_idx)
        # Bit-identical, not merely close: the backends share op order.
        np.testing.assert_array_equal(got_scores, want_scores)

    def test_clean_stack(self, dp_impl, rng):
        stack = [
            _peaky(18, 11, [2 + k // 4 for k in range(18)], rng=rng),
            _peaky(18, 11, [9 - k // 3 for k in range(18)], rng=rng),
            _peaky(18, 11, [5] * 18, rng=rng),
        ]
        self._check(stack)

    def test_faulted_stack_with_nan_holes(self, dp_impl, rng):
        stack = np.stack(
            [_peaky(20, 13, [6] * 20, rng=rng) for _ in range(4)]
        )
        stack[0, 4:7] = np.nan  # burst loss: whole rows gone
        stack[1, :, 3] = np.nan  # one lag column dead throughout
        stack[2, 10] = np.nan
        stack[3, :] = np.nan  # every cell lost
        self._check(stack)

    def test_quantized_tie_stack(self, dp_impl, rng):
        """Coarsely quantized evidence forces many exact score ties; the
        batch kernel must break every one the way np.argmax does."""
        stack = rng.integers(0, 4, size=(5, 16, 9)) / 4.0
        self._check(stack)
        self._check(stack, transition_weight=-0.5)

    def test_production_shape_stack(self, dp_impl, production_stack):
        """Real TRRS evidence at the default lag count, where the native
        sweep drops all but a few origins per step."""
        self._check(production_stack)

    def test_plateau_stack_prunes_nothing(self, dp_impl):
        """Every origin has the same base at every step, so none is
        dominated and the native sweep visits all L of them."""
        self._check(np.full((3, 12, 41), 0.5))
        self._check(np.full((2, 5, 41), 0.5), transition_weight=-7.3)

    def test_winning_origin_far_from_diagonal(self, dp_impl):
        """Evidence jumps across the lag axis, so the best origin of the
        far columns lies at the other end of the band."""
        n_lags = 61
        stack = np.full((2, 24, n_lags), 0.05)
        stack[0, :12, 2] = 1.0
        stack[0, 12:, n_lags - 3] = 1.0
        stack[1, :12, n_lags - 1] = 1.0
        stack[1, 12:, 0] = 1.0
        want_idx, _ = _oracle(stack, transition_weight=-0.1)
        assert (want_idx[0, 11], want_idx[0, 12]) == (2, n_lags - 3)
        assert (want_idx[1, 11], want_idx[1, 12]) == (n_lags - 1, 0)
        self._check(stack, transition_weight=-0.1)
        self._check(stack)

    def test_single_time_step(self, dp_impl, rng):
        self._check(rng.uniform(0, 1, size=(3, 1, 11)))

    def test_single_lag_column(self, dp_impl, rng):
        self._check(rng.uniform(0, 1, size=(3, 6, 1)))

    def test_wide_matrix_beyond_native_stack_cap(self, dp_impl, rng):
        """L > DP_MAX_LAGS exceeds the C kernel's stack scratch; the
        batch entry point must fall back to the exact numpy path."""
        stack = rng.uniform(0, 1, size=(2, 4, 601))
        self._check(stack)

    def test_float32_mode_matches_float64_on_exact_evidence(self, dp_impl, rng):
        """With evidence and jump costs exactly representable in float32
        (and partial sums well inside 24 bits), the float32 kernel twin
        must produce identical paths and scores — isolating precision
        from logic."""
        stack = rng.integers(0, 65, size=(4, 20, 9)) / 64.0
        e64 = _zeroed(stack)
        idx64, sc64 = dp_track_batch(e64, -2.0)
        idx32, sc32 = dp_track_batch(e64.astype(np.float32), -2.0)
        np.testing.assert_array_equal(idx32, idx64)
        np.testing.assert_array_equal(sc32, sc64)


class TestSubSampleAccuracy:
    def test_refinement_beats_integer_quantization(self, rng):
        """Peaks landing between integer lags are recovered to sub-sample
        accuracy — the mechanism behind super-resolution speed (§3.2)."""
        true_lag = 5.37
        lags = np.arange(-10, 11)
        errors_int, errors_ref = [], []
        for _ in range(20):
            row = np.exp(-((lags - true_lag) ** 2) / 4.0) + rng.normal(0, 0.01, lags.size)
            m = _matrix(np.tile(row, (5, 1)))
            out = track_peaks(m)
            errors_int.append(abs(out.lags[2] - true_lag))
            errors_ref.append(abs(out.refined_lags[2] - true_lag))
        assert np.mean(errors_ref) < np.mean(errors_int)
        assert np.mean(errors_ref) < 0.15
