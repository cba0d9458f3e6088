"""Durable trace store: chunked CSI recording, integrity-checked replay,
and streaming checkpoint/resume.

The paper's premise is that CSI recorded once along a trajectory is
re-visited later (virtual antennas, §3.1); real deployments likewise
record once and reprocess many times.  This package is that substrate:

* :mod:`repro.store.format` — the on-disk chunk layout (CRC-32 headers)
  and the :class:`StoreCorruptionError` bridge into the guard-policy
  vocabulary.
* :mod:`repro.store.writer` — :class:`TraceWriter` / :func:`write_trace`:
  append-only, crash-safe recording.
* :mod:`repro.store.reader` — :class:`TraceReader`: random access, lazy
  iteration, raise/drop/repair fault handling with :class:`StoreReport`
  telemetry.
* :mod:`repro.store.checkpoint` — :class:`CheckpointedReplayer`:
  stop-at-chunk-*k*, resume-bit-identically replay on top of
  :class:`~repro.core.streaming.StreamingRim`.

See ``docs/storage.md`` for the format spec and guarantees.
"""

from repro.store.checkpoint import (
    CheckpointedReplayer,
    load_checkpoint,
    save_checkpoint,
)
from repro.store.format import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MANIFEST_NAME,
    ChunkHeader,
    StoreCorruptionError,
    StoreError,
    chunk_filename,
)
from repro.store.reader import ChunkRecord, StoreReport, TraceReader
from repro.store.writer import DEFAULT_CHUNK_SAMPLES, TraceWriter, write_trace

__all__ = [
    "CheckpointedReplayer",
    "ChunkHeader",
    "ChunkRecord",
    "DEFAULT_CHUNK_SAMPLES",
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "MANIFEST_NAME",
    "StoreCorruptionError",
    "StoreError",
    "StoreReport",
    "TraceReader",
    "TraceWriter",
    "chunk_filename",
    "load_checkpoint",
    "save_checkpoint",
    "write_trace",
]
