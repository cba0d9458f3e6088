"""NaN-tolerant reductions that stay silent on all-NaN slices, and an
exact running median.

``np.nanmean``/``np.nanmedian`` emit RuntimeWarnings when a slice holds no
finite value; lost-packet columns make that a routine, expected condition
here, so these wrappers return NaN quietly instead.
"""

from __future__ import annotations

import warnings

import numpy as np


def nanmean(values: np.ndarray, axis=None) -> np.ndarray:
    """np.nanmean without the all-NaN RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return np.nanmean(values, axis=axis)


def nanmedian(values: np.ndarray, axis=None) -> np.ndarray:
    """np.nanmedian without the all-NaN RuntimeWarning, one sort per call.

    Along an integer axis of a float array, every slice is sorted once
    (NaNs sort last) and, with ``n`` non-NaN values, the result is
    ``(s[(n - 1) // 2] + s[n // 2]) / 2``: NaN when ``n == 0``.  Those
    are the two operands and the expression of ``np.nanmedian``'s
    masked-median path, so the result is bit-identical to it, ties and
    ±inf included, without that path's masked-array cost — which every
    alignment matrix would pay, since the rows near either end of a
    trace carry out-of-band NaNs.  (``np.median`` returns the middle of
    an odd count directly; the two differ only where doubling it
    overflows.)  Other calls go to ``np.nanmedian``.
    """
    values = np.asarray(values)
    if (
        not isinstance(axis, int)
        or values.dtype.kind != "f"
        or values.ndim < 2
        or values.size == 0
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            return np.nanmedian(values, axis=axis)
    ordered = np.sort(values, axis=axis)
    n = np.count_nonzero(~np.isnan(values), axis=axis, keepdims=True)
    # With n == 0 both picks land on NaN (index -1 is the last element).
    low = np.take_along_axis(ordered, (n - 1) // 2, axis=axis)
    high = np.take_along_axis(ordered, n // 2, axis=axis)
    with np.errstate(all="ignore"):  # -inf + inf, overflow: silent, as above
        middle = (low + high) / 2
    return np.squeeze(middle, axis=axis)


def nanmax(values: np.ndarray, axis=None) -> np.ndarray:
    """np.nanmax without the all-NaN RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return np.nanmax(values, axis=axis)


def running_median(values: np.ndarray, size: int) -> np.ndarray:
    """Running median of a 1-D array over ``size`` samples, edges held.

    Element ``i`` is the value of rank ``size // 2`` (0-based) among the
    ``size`` samples starting at ``i - size // 2``, with the first and
    last sample repeated past either end.  That is the definition of
    SciPy's ``ndimage.median_filter(values, size, mode="nearest")``, for
    odd and even ``size`` alike, and the result equals it element for
    element, ties and ±inf included (``tests/test_nanops.py`` checks
    this against SciPy).  The input must be a non-empty float64 array
    free of NaN, and ``size`` at least 1, as ``core.motion`` guarantees
    before calling: NaN has no rank, so where a window holds one the
    result is unspecified.
    """
    half = size // 2
    padded = np.pad(values, (half, size - 1 - half), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, size)
    return np.partition(windows, half, axis=-1)[:, half]
