"""``repro.perf`` — kernel backends for the alignment hot path.

The package holds the TRRS/alignment kernels the pipeline runs and the
streaming cross-block row cache:

* :mod:`repro.perf.kernels` — ``batched`` (the default: BLAS band GEMMs
  over a shared row store, with cell reuse) and ``reference`` (the
  serial per-pair oracle the tests compare against);
* :mod:`repro.perf.dptrack` — batched DP peak tracking, a pruned native
  kernel with an exact numpy fallback;
* :mod:`repro.perf.streamcache` — incremental reuse of the context
  window's TRRS rows across streaming blocks.

``Rim`` builds its backend from two ``RimConfig`` fields,
``kernel_backend`` and ``kernel_dtype``.  Both backends are numerically
equivalent.  See ``docs/performance.md``.
"""

from __future__ import annotations

from repro.perf.kernels import (
    BaseRowStore,
    BatchedBackend,
    KernelBackend,
    ReferenceBackend,
)
from repro.perf.dptrack import dp_track_batch, native_available
from repro.perf.streamcache import StreamAlignmentCache

__all__ = [
    "BaseRowStore",
    "BatchedBackend",
    "KernelBackend",
    "ReferenceBackend",
    "StreamAlignmentCache",
    "dp_track_batch",
    "native_available",
]
