"""Exact statistics, metric naming, and host facts for the benchmark.

Latency percentiles are computed here from raw per-update samples, never
from the program's bucketed ``repro.obs`` histograms.
"""

from __future__ import annotations

import math
import os
import platform
import re
from typing import Dict, Iterable, Sequence

# Thread-count knobs of the BLAS builds NumPy may use; the benchmark pins
# them to 1 before NumPy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_metric_names(names: Iterable[str]) -> None:
    """Raise ``ValueError`` on a name the result format cannot carry."""
    bad = [name for name in names if not METRIC_NAME.match(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks.

    Same definition as ``numpy.percentile``'s default, written out so the
    benchmark's statistics do not depend on the library under test.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def proc_status_kb(pid: int, field: str) -> float:
    """A ``/proc/<pid>/status`` memory field in kB (0 when unavailable)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (VmHWM) of the given processes, MB."""
    return sum(proc_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a process has used so far."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _blas_name() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def host_fingerprint() -> Dict[str, object]:
    """Facts that decide whether two results are comparable."""
    import numpy as np

    from repro.perf import native_available
    from repro.shard.router import default_start_method

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "dp_native": bool(native_available()),
        "mp_start_method": default_start_method(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }
