"""Batched DP peak tracking: pruned native sweep + exact numpy fallback.

The reference tracker (:func:`repro.core.tracking.track_peaks`) runs the
Bellman recursion of §4.2 one matrix at a time, with a per-step ``(L, L)``
candidate table and a Python-level loop over time steps.  This module
supplies the batched formulation the ``batched`` kernel backend uses for
its ``track_paths`` capability: the forward pass runs over a whole
*stack* of alignment matrices at once, and two implementations serve it —

* a **native kernel** (``_dptrack.c``), compiled on demand with the
  system C compiler and cached as a shared library.  It sweeps the
  candidate table lag-outermost with a branchless blend that reproduces
  ``np.argmax``'s first-index tie-break exactly, over only the origin
  lags no other origin beats in every column: two O(L) running-max
  sweeps of the jump-cost cone mark the rest (see the proof in the C
  source and ``docs/performance.md``);
* an **exact numpy fallback** that evaluates the same candidate sums
  batched across matrices (``cand[p, n, l] = base[p, l] + jc[n, l]``,
  lossless because the jump cost is symmetric) with a contiguous
  last-axis argmax.

Both paths produce bit-identical backpointers, tie decisions, and scores
relative to the reference recursion — enforced by
``tests/test_tracking_dp.py`` and ``tests/test_kernel_backends.py`` —
so which one serves a request is purely a speed question.  The native
kernel serves whenever it builds and loads; compilation failures (no
compiler, sandboxed filesystem, exotic platform) select the fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

RIM_DP_CACHE_ENV = "RIM_DP_CACHE_DIR"  # overrides the .so cache directory

_SOURCE = Path(__file__).with_name("_dptrack.c")

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_load_attempted = False


def _cache_dir() -> Path:
    override = os.environ.get(RIM_DP_CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-rim"


def _compile(source: Path, out: Path) -> bool:
    """Build ``source`` into the shared library ``out``; False on failure."""
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    base_cmd = ["cc", "-O3", "-fPIC", "-shared", str(source), "-o", tmp, "-lm"]
    # -march=native unlocks vectorization of the blend loop; some
    # toolchains (older cross setups) reject it, so retry portably.
    for extra in (["-march=native"], []):
        cmd = base_cmd[:1] + extra + base_cmd[1:]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, timeout=120, check=False
            )
        except (OSError, subprocess.TimeoutExpired):
            break
        if proc.returncode == 0:
            os.replace(tmp, out)
            return True
    try:
        os.unlink(tmp)
    except OSError:
        pass
    return False


def _load_native() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use; None if not."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    with _lock:
        if _load_attempted:
            return _lib
        lib = None
        try:
            source = _SOURCE.read_bytes()
            tag = hashlib.sha256(source).hexdigest()[:16]
            so_path = _cache_dir() / f"_dptrack-{tag}.so"
            if not so_path.exists():
                if not _compile(_SOURCE, so_path):
                    so_path = None
            if so_path is not None:
                lib = ctypes.CDLL(str(so_path))
                for name, real in (
                    ("dp_forward_f64", ctypes.c_double),
                    ("dp_forward_f32", ctypes.c_float),
                ):
                    fn = getattr(lib, name)
                    ptr = ctypes.POINTER(real)
                    i32p = ctypes.POINTER(ctypes.c_int32)
                    fn.argtypes = [
                        ptr, ptr, ptr, i32p,
                        ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t,
                        real,
                    ]
                    fn.restype = ctypes.c_int
                bt = lib.dp_backtrace
                bt.argtypes = [
                    ctypes.POINTER(ctypes.c_int32),
                    ctypes.POINTER(ctypes.c_int64),
                    ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t,
                ]
                bt.restype = None
        except (OSError, AttributeError):
            lib = None
        _lib = lib
        _load_attempted = True
        return _lib


def native_available() -> bool:
    """Whether the compiled native kernel is (buildable and) loaded."""
    return _load_native() is not None


def _jump_cost(n_lags: int, transition_weight: float, dtype) -> np.ndarray:
    """The (L, L) table ω·|l-n|/(2W), in the reference's exact expression."""
    lag_axis = np.arange(n_lags)
    jc = (
        transition_weight
        * np.abs(lag_axis[:, None] - lag_axis[None, :])
        / max(1, n_lags - 1)
    )
    return np.ascontiguousarray(jc, dtype=dtype)


def _forward_native(
    lib: ctypes.CDLL, e: np.ndarray, jc: np.ndarray, omega: float
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Run the compiled forward pass; None when L exceeds its stack cap."""
    n_mat, t, n_lags = e.shape
    real = e.dtype.type
    score = np.empty((n_mat, n_lags), dtype=e.dtype)
    backptr = np.zeros((t, n_mat, n_lags), dtype=np.int32)
    fn = lib.dp_forward_f32 if real is np.float32 else lib.dp_forward_f64
    ctype = ctypes.c_float if real is np.float32 else ctypes.c_double
    ptr = ctypes.POINTER(ctype)
    i32p = ctypes.POINTER(ctypes.c_int32)
    rc = fn(
        e.ctypes.data_as(ptr),
        jc.ctypes.data_as(ptr),
        score.ctypes.data_as(ptr),
        backptr.ctypes.data_as(i32p),
        ctypes.c_ssize_t(n_mat),
        ctypes.c_ssize_t(t),
        ctypes.c_ssize_t(n_lags),
        ctype(omega),
    )
    if rc != 0:
        return None
    return backptr, score


def _forward_numpy(e: np.ndarray, jc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact batched Bellman forward pass (the no-compiler path).

    Evaluates ``cand[p, n, l] = base[p, l] + jc[n, l]`` — the reference
    candidate table transposed, which is lossless because the jump cost
    is symmetric — so the contiguous last-axis argmax keeps numpy's
    first-index tie-break over the origin lag ``l``.
    """
    n_mat, t, n_lags = e.shape
    score = e[:, 0].copy()
    backptr = np.zeros((t, n_mat, n_lags), dtype=np.int32)
    cand = np.empty((n_mat, n_lags, n_lags), dtype=e.dtype)
    base = np.empty((n_mat, n_lags), dtype=e.dtype)
    pidx = np.arange(n_mat)[:, None]
    lag_axis = np.arange(n_lags)[None, :]
    for step in range(1, t):
        np.add(score, e[:, step - 1], out=base)
        np.add(base[:, None, :], jc[None], out=cand)
        best_prev = np.argmax(cand, axis=2)
        backptr[step] = best_prev
        np.add(cand[pidx, lag_axis, best_prev], e[:, step], out=score)
    return backptr, score


def dp_track_batch(
    e_stack: np.ndarray, transition_weight: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal DP lag paths for a stack of evidence matrices at once.

    Args:
        e_stack: (P, T, L) float32/float64 evidence (NaNs already zeroed,
            exactly as :func:`repro.core.tracking.track_peaks` prepares
            its matrix).  The dtype selects the kernel precision.
        transition_weight: ω < 0 of Eqn. 7.

    Returns:
        ``(lag_indices, scores)``: (P, T) int64 tracked columns and the
        (P,) total accumulated score of each optimal path.  Identical to
        running the reference recursion per matrix: same candidate sums,
        same first-index tie-breaks, same backpointers.
    """
    e = np.ascontiguousarray(e_stack)
    n_mat, t, n_lags = e.shape
    jc = _jump_cost(n_lags, transition_weight, e.dtype)
    lib = _load_native()
    native = None
    if lib is not None:
        native = _forward_native(lib, e, jc, transition_weight)
    if native is not None:
        backptr, score = native
    else:
        backptr, score = _forward_numpy(e, jc)

    lag_indices = np.empty((n_mat, t), dtype=np.int64)
    lag_indices[:, -1] = np.argmax(score, axis=1)
    if native is not None:
        lib.dp_backtrace(
            backptr.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
            lag_indices.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            ctypes.c_ssize_t(n_mat),
            ctypes.c_ssize_t(t),
            ctypes.c_ssize_t(n_lags),
        )
    else:
        pflat = np.arange(n_mat)
        for step in range(t - 1, 0, -1):
            lag_indices[:, step - 1] = backptr[step, pflat, lag_indices[:, step]]
    return lag_indices, np.max(score, axis=1).astype(np.float64)
