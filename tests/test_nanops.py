"""Unit tests for the silent NaN-tolerant reductions and the running median
in repro.nanops."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nanops import nanmax, nanmean, nanmedian, running_median

ALL_FUNCS = [nanmean, nanmedian, nanmax]
NUMPY_EQUIV = {nanmean: np.nanmean, nanmedian: np.nanmedian, nanmax: np.nanmax}


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_matches_numpy_on_finite_input(func):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 5))
    np.testing.assert_allclose(func(values), NUMPY_EQUIV[func](values))
    np.testing.assert_allclose(func(values, axis=0), NUMPY_EQUIV[func](values, axis=0))
    np.testing.assert_allclose(func(values, axis=1), NUMPY_EQUIV[func](values, axis=1))


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_ignores_scattered_nans(func):
    values = np.array([[1.0, np.nan, 3.0], [np.nan, 2.0, 4.0]])
    out = func(values, axis=0)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, NUMPY_EQUIV[func](values, axis=0))


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_all_nan_input_returns_nan_silently(func):
    values = np.full((3, 4), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any RuntimeWarning becomes a failure
        assert np.isnan(func(values))
        assert np.isnan(func(values, axis=0)).all()
        assert np.isnan(func(values, axis=1)).all()


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_all_nan_slice_along_axis_is_silent(func):
    values = np.array([[1.0, np.nan], [2.0, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = func(values, axis=0)
    assert np.isfinite(out[0])
    assert np.isnan(out[1])


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_does_not_suppress_warnings_for_caller(func):
    """The warning filter must not leak outside the wrapper."""
    func(np.full(3, np.nan))
    with pytest.warns(RuntimeWarning):
        warnings.warn("still visible", RuntimeWarning)


def test_nanmax_all_nan_no_value_error():
    # Plain np.nanmax warns (not raises) on all-NaN; the wrapper must too.
    assert np.isnan(nanmax(np.array([np.nan, np.nan])))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_nanmedian_bit_identical_to_numpy(data):
    """The one-sort median equals np.nanmedian bit for bit (NaN for NaN):
    ties, NaN, ±inf, extreme magnitudes and all-NaN slices included."""
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    width = 32 if dtype is np.float32 else 64
    # A handful of repeated values makes ties the common case.
    elements = st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 0.25, 0.5]),
        st.floats(width=width),
    )
    shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=9))
    values = data.draw(hnp.arrays(dtype, shape, elements=elements))
    axis = data.draw(st.sampled_from([0, 1]))
    if data.draw(st.booleans()):
        # One whole slice along the reduced axis is lost.
        k = data.draw(st.integers(0, shape[1 - axis] - 1))
        if axis == 1:
            values[k, :] = np.nan
        else:
            values[:, k] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        want = np.nanmedian(values, axis=axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nanmedian(values, axis=axis)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_running_median_equals_scipy_median_filter(data):
    """The numpy running median is SciPy's ``median_filter`` with
    ``mode="nearest"``, element for element: every length 1-300, every
    size from 1 to two past the length (odd and even), ties and ±inf.
    SciPy is the test oracle only; the package does not import it."""
    from scipy.ndimage import median_filter

    n = data.draw(st.integers(1, 300))
    size = data.draw(st.integers(1, n + 2))
    elements = st.one_of(
        st.sampled_from([np.inf, -np.inf, -1.0, 0.0, 0.25, 0.5]),
        st.floats(allow_nan=False),
    )
    values = data.draw(hnp.arrays(np.float64, n, elements=elements))
    got = running_median(values, size)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, median_filter(values, size=size, mode="nearest"))


def test_running_median_edges():
    values = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    np.testing.assert_array_equal(running_median(values, 1), values)
    # Edges repeat the end samples: [5, 5, 1] -> 5, [1, 4, 2] -> 2, ...
    np.testing.assert_array_equal(running_median(values, 3), [5.0, 4.0, 2.0, 3.0, 3.0])
    # Even sizes take rank size // 2 of the window starting size // 2 back.
    np.testing.assert_array_equal(running_median(values, 2), [5.0, 5.0, 4.0, 4.0, 3.0])
