"""Binary layout of the chunked trace store (see ``docs/storage.md``).

A store is a directory::

    mystore/
      manifest.json        # geometry, dtype/shape, trajectory, metadata
      chunk-00000000.rimc  # fixed-size CSI sample chunks, one file each
      chunk-00000001.rimc
      ...

Each chunk file is a 36-byte little-endian header followed by the
payload.  Header layout (``<4sHHQIIQI``):

======  ====  =========  ================================================
offset  size  field      meaning
======  ====  =========  ================================================
0       4     magic      ``b"RIMC"``
4       2     version    chunk format version (this build writes 1)
6       2     flags      reserved, must be 0
8       8     seq        monotonic chunk sequence number (0-based)
16      4     n_samples  CSI packets in this chunk
20      4     reserved   must be 0
24      8     payload    payload length in bytes
32      4     crc32      CRC-32 (zlib) of the payload bytes
======  ====  =========  ================================================

Payload = ``times`` (``n_samples`` float64) immediately followed by
``data`` (``n_samples × n_rx × n_tx × S`` complex64, C order).  The
per-sample shape and dtype live in the sidecar manifest, so a chunk is
self-describing only together with its store — headers stay fixed-size
and cheap to scan.

Corruption detected while decoding raises :class:`StoreCorruptionError`,
which is also a :class:`~repro.robustness.guard.GuardError` so the
``raise`` guard policy means the same thing at the store layer as it
does in front of the estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.binfmt import HeaderCodec, crc32_of, verify_crc32
from repro.robustness.guard import GuardError

MAGIC = b"RIMC"
FORMAT_VERSION = 1
SUPPORTED_CHUNK_VERSIONS = (1,)

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "rim-trace-store"
MANIFEST_VERSION = 1
SUPPORTED_MANIFEST_VERSIONS = (1,)

CHUNK_PREFIX = "chunk-"
CHUNK_SUFFIX = ".rimc"
CHUNK_GLOB = f"{CHUNK_PREFIX}*{CHUNK_SUFFIX}"

SAMPLE_DTYPE = np.complex64
TIME_DTYPE = np.float64


class StoreError(ValueError):
    """A malformed store that no policy can (or should) paper over."""


class StoreCorruptionError(StoreError, GuardError):
    """Integrity fault (CRC mismatch, torn chunk, bad sequence number).

    Subclasses :class:`~repro.robustness.guard.GuardError` so the store's
    ``raise`` policy composes with existing ``except GuardError`` handlers.
    """


# Header layout shared with the module docstring table; the codec is the
# common implementation from repro.binfmt (also behind repro.net framing).
HEADER_CODEC = HeaderCodec(
    MAGIC, "<4sHHQIIQI", SUPPORTED_CHUNK_VERSIONS, error_cls=StoreCorruptionError
)
HEADER_STRUCT = HEADER_CODEC.struct
HEADER_SIZE = HEADER_CODEC.size  # 36 bytes


@dataclass(frozen=True)
class ChunkHeader:
    """Decoded fixed-size chunk header."""

    seq: int
    n_samples: int
    payload_bytes: int
    payload_crc: int
    version: int = FORMAT_VERSION
    flags: int = 0


def chunk_filename(seq: int) -> str:
    """Canonical file name of chunk ``seq`` (sortable, zero-padded)."""
    if seq < 0:
        raise ValueError(f"chunk sequence number must be >= 0, got {seq}")
    return f"{CHUNK_PREFIX}{seq:08d}{CHUNK_SUFFIX}"


def seq_from_filename(name: str) -> int:
    """Inverse of :func:`chunk_filename`; raises StoreError on mismatch."""
    if not (name.startswith(CHUNK_PREFIX) and name.endswith(CHUNK_SUFFIX)):
        raise StoreError(f"{name!r} is not a chunk file name")
    digits = name[len(CHUNK_PREFIX) : -len(CHUNK_SUFFIX)]
    if not digits.isdigit():
        raise StoreError(f"{name!r} carries a non-numeric sequence number")
    return int(digits)


def payload_nbytes(n_samples: int, sample_shape: Tuple[int, ...]) -> int:
    """Exact payload size of a chunk with ``n_samples`` packets."""
    per_sample = int(np.prod(sample_shape)) * np.dtype(SAMPLE_DTYPE).itemsize
    return n_samples * (np.dtype(TIME_DTYPE).itemsize + per_sample)


def pack_chunk(seq: int, data: np.ndarray, times: np.ndarray) -> bytes:
    """Encode one chunk (header + payload) ready to append to a store.

    Args:
        seq: Monotonic chunk sequence number.
        data: (n, n_rx, n_tx, S) complex CSI samples.
        times: (n,) float64 packet timestamps.
    """
    data = np.ascontiguousarray(data, dtype=SAMPLE_DTYPE)
    times = np.ascontiguousarray(times, dtype=TIME_DTYPE)
    if data.ndim != 4:
        raise StoreError(f"chunk data must be (n, n_rx, n_tx, S), got {data.shape}")
    if times.shape != (data.shape[0],):
        raise StoreError(
            f"chunk times must be ({data.shape[0]},), got {times.shape}"
        )
    payload = times.tobytes() + data.tobytes()
    header = HEADER_CODEC.pack(
        FORMAT_VERSION,
        0,
        seq,
        data.shape[0],
        0,
        len(payload),
        crc32_of(payload),
    )
    return header + payload


def unpack_header(buf: bytes, where: str = "chunk") -> ChunkHeader:
    """Decode and validate a chunk header.

    Raises:
        StoreCorruptionError: On short reads, bad magic, or an unknown
            chunk format version.
    """
    version, flags, seq, n_samples, reserved, payload_bytes, crc = (
        HEADER_CODEC.unpack(buf, where=where)
    )
    if flags != 0 or reserved != 0:
        raise StoreCorruptionError(
            f"{where}: nonzero reserved header fields "
            f"(flags={flags}, reserved={reserved})"
        )
    return ChunkHeader(
        seq=int(seq),
        n_samples=int(n_samples),
        payload_bytes=int(payload_bytes),
        payload_crc=int(crc),
        version=int(version),
        flags=int(flags),
    )


def unpack_payload(
    header: ChunkHeader,
    payload: bytes,
    sample_shape: Tuple[int, ...],
    where: str = "chunk",
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a chunk payload, verifying length and CRC-32.

    Args:
        header: The chunk's decoded header.
        payload: ``header.payload_bytes`` bytes.
        sample_shape: Per-sample (n_rx, n_tx, S) from the store manifest.
        where: Context for error messages.

    Returns:
        ``(data, times)`` — (n, *sample_shape) complex64 and (n,) float64.

    Raises:
        StoreCorruptionError: On length mismatch or CRC failure.
    """
    n = header.n_samples
    expected = payload_nbytes(n, sample_shape)
    if header.payload_bytes != expected:
        raise StoreCorruptionError(
            f"{where}: payload length {header.payload_bytes} does not match "
            f"{n} samples of shape {sample_shape} ({expected} bytes)"
        )
    if len(payload) != header.payload_bytes:
        raise StoreCorruptionError(
            f"{where}: torn payload ({len(payload)} of "
            f"{header.payload_bytes} bytes)"
        )
    verify_crc32(
        header.payload_crc, payload, error_cls=StoreCorruptionError, where=where
    )
    split = n * np.dtype(TIME_DTYPE).itemsize
    times = np.frombuffer(payload, dtype=TIME_DTYPE, count=n)
    data = np.frombuffer(payload, dtype=SAMPLE_DTYPE, offset=split).reshape(
        (n, *sample_shape)
    )
    return data.copy(), times.copy()
