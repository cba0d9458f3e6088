"""Kernel selection and batched-vs-reference equivalence tests.

The batched backend (``repro.perf.kernels``) is only admissible if it is
numerically indistinguishable from the reference per-pair kernels: same
NaN cells, values within 1e-9, on clean traces AND under injected faults.
These are the acceptance tests for that contract, plus the two
``RimConfig`` fields that select the kernels and the float32 budget.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Rim, RimConfig, StreamingRim
from repro.arrays.pairs import all_pairs
from repro.core.trrs import normalize_csi
from repro.perf.kernels import BatchedBackend, ReferenceBackend
from repro.robustness import FaultPlan

TOL = 1e-9

# The fault menu of the acceptance criterion: a dead RF chain, bursty
# packet loss, and truncated (partially-NaN) packets.
FAULT_PLANS = {
    "clean": None,
    "dead_chain": FaultPlan(seed=1, dead_chains=(2,)),
    "bursty_loss": FaultPlan(seed=2, loss_rate=0.05, loss_burst=8),
    "truncation": FaultPlan(seed=3, truncate_fraction=0.03),
}


def _faulted(trace, plan_name):
    plan = FAULT_PLANS[plan_name]
    return trace if plan is None else plan.apply(trace)


# -- kernel selection -------------------------------------------------------


def test_resolution_default_is_batched():
    rim = Rim(RimConfig())
    assert RimConfig().kernel_backend == rim.kernel_backend == "batched"
    assert isinstance(rim._kernel, BatchedBackend)


def test_unknown_backend_fails_fast_with_choices():
    with pytest.raises(ValueError, match="reference"):
        RimConfig(kernel_backend="no-such-kernel")


def test_rim_config_selects_kernel():
    assert Rim(RimConfig(kernel_dtype="float32"))._kernel.dtype == np.float32
    assert isinstance(
        Rim(RimConfig(kernel_backend="reference"))._kernel, ReferenceBackend
    )
    for bad in (
        {"kernel_backend": "auto"},
        {"kernel_dtype": "auto"},
    ):
        with pytest.raises(ValueError):
            RimConfig(**bad)


def test_config_rejects_empty_backend_name():
    with pytest.raises(ValueError):
        RimConfig(kernel_backend="")


# -- kernel precision (float32 opt-in) --------------------------------------


def test_dtype_resolution_default_is_float64():
    assert RimConfig().kernel_dtype == "float64"
    assert Rim(RimConfig())._kernel.dtype == np.float64


def test_config_rejects_unknown_dtype():
    with pytest.raises(ValueError):
        RimConfig(kernel_dtype="float16")


def test_float32_backend_stores_single_precision(line_trace):
    backend = BatchedBackend(dtype="float32")
    store = backend.make_store(normalize_csi(line_trace.data), 25)
    assert store.dtype == np.float32
    with pytest.raises(ValueError):
        BatchedBackend(dtype="int8")


# The float32 kernel error budget of docs/performance.md: with single-
# precision TRRS accumulation and DP scores, the integrated distance on
# the standard testbed stays within 1e-6 of the float64 path, in batch
# and streaming, on linear and hexagonal arrays, clean and under bursty
# loss (measured deviation is at most 2.5e-8 m on ~1 m trajectories; the
# budget leaves a 40x headroom for other scenarios).
FLOAT32_DISTANCE_BUDGET = 1e-6


def _stream_distance(trace, cfg):
    stream = StreamingRim(
        trace.array,
        trace.sampling_rate,
        cfg,
        block_seconds=0.5,
        carrier_wavelength=trace.carrier_wavelength,
    )
    for k in range(trace.n_samples):
        stream.push(trace.data[k], float(trace.times[k]))
    stream.flush()
    return stream.total_distance


@pytest.mark.parametrize("plan_name", ["clean", "bursty_loss"])
@pytest.mark.parametrize("path", ["process", "stream"])
@pytest.mark.parametrize("trace_name", ["line_trace", "hex_line_trace"])
def test_float32_pipeline_within_documented_budget(
    request, trace_name, path, plan_name
):
    trace = _faulted(request.getfixturevalue(trace_name), plan_name)

    def distance(dtype):
        cfg = RimConfig(max_lag=25, kernel_dtype=dtype)
        if path == "process":
            return Rim(cfg).process(trace).total_distance
        return _stream_distance(trace, cfg)

    d64 = distance("float64")
    d32 = distance("float32")
    assert abs(d32 - d64) <= FLOAT32_DISTANCE_BUDGET


def test_float64_mode_unchanged_by_dtype_plumbing(line_trace):
    """kernel_dtype='float64' must be the exact default pipeline —
    bit-identical distance, not merely within tolerance."""
    default = Rim(RimConfig(max_lag=25, kernel_backend="batched")).process(
        line_trace
    )
    pinned = Rim(
        RimConfig(max_lag=25, kernel_backend="batched", kernel_dtype="float64")
    ).process(line_trace)
    assert default.total_distance == pinned.total_distance


# -- raw matrix equivalence -------------------------------------------------


def _stores(trace, max_lag=25):
    norm = normalize_csi(trace.data)
    ref, bat = ReferenceBackend(), BatchedBackend()
    return (
        ref,
        bat,
        ref.make_store(norm, max_lag),
        bat.make_store(norm, max_lag),
    )


def _assert_matrices_match(ref_mats, bat_mats):
    for rm, bm in zip(ref_mats, bat_mats):
        assert rm.pair == bm.pair
        assert np.array_equal(rm.lags, bm.lags)
        ref_nan = np.isnan(rm.values)
        assert np.array_equal(ref_nan, np.isnan(bm.values)), (
            f"NaN masks differ for pair {rm.pair}"
        )
        assert np.allclose(
            rm.values, bm.values, rtol=0.0, atol=TOL, equal_nan=True
        ), f"values differ for pair {rm.pair}"


def _both_orientations(array):
    """Every pair and its reverse: the batched store keeps one band for
    both, and serves ``(j, i)`` by reading the ``(i, j)`` band transposed."""
    pairs = all_pairs(array)
    return pairs + [dataclasses.replace(p, i=p.j, j=p.i) for p in pairs]


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("virtual_window", [1, 8])
def test_raw_matrices_match_reference(line_trace, plan_name, virtual_window):
    trace = _faulted(line_trace, plan_name)
    pairs = _both_orientations(trace.array)
    ref, bat, rs, bs = _stores(trace)
    kw = dict(virtual_window=virtual_window, sampling_rate=trace.sampling_rate)
    _assert_matrices_match(
        ref.matrices(rs, pairs, **kw), bat.matrices(bs, pairs, **kw)
    )


def test_strided_matrices_match_reference(line_trace):
    """Under every fault plan.  Stride 8 rows merge into band GEMMs;
    stride 24 rows stay scattered and go to the gather kernel."""
    for plan_name in sorted(FAULT_PLANS):
        trace = _faulted(line_trace, plan_name)
        pairs = _both_orientations(trace.array)
        for time_stride in (8, 24):
            ref, bat, rs, bs = _stores(trace)
            kw = dict(
                virtual_window=1,
                sampling_rate=trace.sampling_rate,
                time_stride=time_stride,
            )
            _assert_matrices_match(
                ref.matrices(rs, pairs, **kw), bat.matrices(bs, pairs, **kw)
            )


def test_reversed_request_stores_one_band(line_trace):
    """A ``(1, 0)`` request computes and keeps only the ``(0, 1)`` band."""
    (pair,) = [p for p in all_pairs(line_trace.array) if (p.i, p.j) == (0, 1)]
    reversed_pair = dataclasses.replace(pair, i=1, j=0)
    ref, bat, rs, bs = _stores(line_trace)
    kw = dict(virtual_window=1, sampling_rate=line_trace.sampling_rate)
    got = bat.matrices(bs, [reversed_pair], **kw)
    assert list(bs.values) == [(0, 1)]
    assert got[0].pair == (1, 0)
    _assert_matrices_match(ref.matrices(rs, [reversed_pair], **kw), got)


def test_strided_then_full_request_reuses_rows(line_trace):
    """A full request after a strided pre-screen stays exact (row reuse)."""
    pairs = all_pairs(line_trace.array)
    ref, bat, rs, bs = _stores(line_trace)
    kw = dict(virtual_window=1, sampling_rate=line_trace.sampling_rate)
    bat.matrices(bs, pairs, time_stride=8, **kw)  # warms every 8th row
    _assert_matrices_match(
        ref.matrices(rs, pairs, **kw), bat.matrices(bs, pairs, **kw)
    )


# -- end-to-end pipeline equivalence ---------------------------------------


def _run(trace, backend, **cfg_kw):
    return Rim(RimConfig(max_lag=25, kernel_backend=backend, **cfg_kw)).process(trace)


def _assert_results_match(ref, bat):
    assert np.array_equal(ref.motion.moving, bat.motion.moving)
    for attr in ("speed", "heading"):
        a, b = getattr(ref.motion, attr), getattr(bat.motion, attr)
        assert np.array_equal(np.isnan(a), np.isnan(b)), attr
        assert np.allclose(a, b, rtol=0.0, atol=TOL, equal_nan=True), attr
    assert abs(ref.total_distance - bat.total_distance) <= TOL


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
def test_pipeline_equivalence_linear(line_trace, plan_name):
    trace = _faulted(line_trace, plan_name)
    _assert_results_match(
        _run(trace, "reference"), _run(trace, "batched")
    )


@pytest.mark.parametrize("plan_name", ["clean", "bursty_loss"])
def test_pipeline_equivalence_hexagon(hex_line_trace, plan_name):
    """Hexagonal array exercises rotation detection's ring-pair requests."""
    trace = _faulted(hex_line_trace, plan_name)
    _assert_results_match(
        _run(trace, "reference"), _run(trace, "batched")
    )


@pytest.mark.parametrize("plan_name", ["clean", "dead_chain", "bursty_loss"])
def test_streaming_equivalence(line_trace, plan_name):
    """Streamed distance must not depend on the backend or the row cache."""
    trace = _faulted(line_trace, plan_name)

    def stream_distance(backend, stream_reuse):
        cfg = RimConfig(
            max_lag=25, kernel_backend=backend, stream_reuse=stream_reuse
        )
        return _stream_distance(trace, cfg)

    d_ref = stream_distance("reference", stream_reuse=False)
    d_bat = stream_distance("batched", stream_reuse=False)
    d_cached = stream_distance("batched", stream_reuse=True)
    assert abs(d_bat - d_ref) <= TOL
    assert abs(d_cached - d_ref) <= TOL
