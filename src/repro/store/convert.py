"""Import of legacy ``.npz`` archives into the chunked store.

The store is the only trace writer; archives come in one way.  The
import is lossless for well-formed inputs (enforced by
``tests/test_store.py``): samples are complex64 in both formats, clocks
are float64, and the ground-truth trajectory / AP positions ride in the
store manifest via the shared codecs in :mod:`repro.io`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.io import load_trace
from repro.store.writer import DEFAULT_CHUNK_SAMPLES, TraceWriter, write_trace


def npz_to_store(
    src,
    dest,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    metadata: Optional[Dict[str, Any]] = None,
) -> TraceWriter:
    """Convert a legacy ``.npz`` archive into a chunked store directory.

    Returns:
        The (closed) writer, for its ``n_chunks`` / ``bytes_written``.
    """
    trace = load_trace(src)
    return write_trace(dest, trace, chunk_samples=chunk_samples, metadata=metadata)
