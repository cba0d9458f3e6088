"""Append-only trace recording: :class:`TraceWriter` and :func:`write_trace`.

The writer buffers pushed CSI packets and drains them to fixed-size chunk
files (``chunk-NNNNNNNN.rimc``), so a recording session can run for hours
with bounded memory and a crash loses at most the unflushed tail: the
manifest is written (atomically, via rename) as soon as the sample shape
is known, each full chunk is durable the moment its file closes, and a
torn final chunk is detected and dropped by :class:`~repro.store.reader.
TraceReader` on open.

When :mod:`repro.obs` is enabled, writes publish ``store.chunks_written``
/ ``store.bytes_written`` counters and a ``store.chunk_write_s``
histogram.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.arrays.geometry import AntennaArray
from repro.obs.flight import FLIGHT
from repro.channel.sampler import CsiTrace
from repro.io import array_to_manifest, trajectory_to_manifest
from repro.motionsim.trajectory import Trajectory
from repro.store.format import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SAMPLE_DTYPE,
    StoreError,
    chunk_filename,
    pack_chunk,
)

DEFAULT_CHUNK_SAMPLES = 256


def _write_json_atomic(path: Path, payload: Dict[str, Any]) -> None:
    """Write JSON via a temp file + rename so readers never see a torn file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class TraceWriter:
    """Record CSI packets into a chunked append-only store directory.

    Args:
        root: Store directory (created if absent; must not already hold a
            manifest — one store, one recording).
        array: Receive antenna array (persisted in the manifest).
        carrier_wavelength: Carrier wavelength, meters.
        chunk_samples: Packets per chunk file.
        tx_positions: Optional (n_tx, 2) AP antenna positions.
        trajectory: Optional ground-truth trajectory (simulated traces).
        sampling_rate: Nominal packet rate, Hz.  Optional — estimated
            from the recorded timestamps at close when omitted — but
            required to synthesize timestamps for ``append(..., None)``.
        metadata: Extra JSON-serializable manifest fields (``"user"`` key).
    """

    def __init__(
        self,
        root,
        array: AntennaArray,
        carrier_wavelength: float = 0.0516,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
        tx_positions: Optional[np.ndarray] = None,
        trajectory: Optional[Trajectory] = None,
        sampling_rate: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        if chunk_samples < 1:
            raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if (self.root / MANIFEST_NAME).exists():
            raise StoreError(
                f"{self.root} already holds a trace store; refusing to append "
                "to an existing recording"
            )
        self.array = array
        self.carrier_wavelength = float(carrier_wavelength)
        self.chunk_samples = int(chunk_samples)
        self.tx_positions = (
            None
            if tx_positions is None
            else np.asarray(tx_positions, dtype=np.float64)
        )
        self.trajectory = trajectory
        self.sampling_rate = None if sampling_rate is None else float(sampling_rate)
        self.metadata = dict(metadata) if metadata else {}

        self.sample_shape: Optional[Tuple[int, int, int]] = None
        self.n_samples = 0
        self.n_chunks = 0
        self.bytes_written = 0
        self._pending: List[np.ndarray] = []
        self._pending_times: List[float] = []
        self._first_time: Optional[float] = None
        self._last_time: Optional[float] = None
        self._closed = False

    # -- recording ----------------------------------------------------------

    def append(self, data: np.ndarray, times=None) -> None:
        """Append one packet or a batch of packets.

        Args:
            data: (n_rx, n_tx, S) single packet or (n, n_rx, n_tx, S) batch.
            times: Scalar timestamp (single packet), (n,) timestamps
                (batch), or None to synthesize ``k / sampling_rate``.
        """
        if self._closed:
            raise StoreError("TraceWriter is closed")
        data = np.asarray(data)
        if data.ndim == 3:
            data = data[None]
            if times is not None and np.ndim(times) == 0:
                times = [float(times)]
        if data.ndim != 4:
            raise StoreError(
                f"append expects (n_rx, n_tx, S) or (n, n_rx, n_tx, S), "
                f"got {data.shape}"
            )
        n = data.shape[0]
        if times is None:
            if self.sampling_rate is None:
                raise StoreError(
                    "append(times=None) needs sampling_rate to synthesize "
                    "timestamps"
                )
            times = (self.n_samples + len(self._pending) + np.arange(n)) / (
                self.sampling_rate
            )
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        if times.shape != (n,):
            raise StoreError(f"times must be ({n},), got {times.shape}")

        if self.sample_shape is None:
            if data.shape[1] != self.array.n_antennas:
                raise StoreError(
                    f"packet has {data.shape[1]} RX chains, array has "
                    f"{self.array.n_antennas}"
                )
            self.sample_shape = tuple(int(s) for s in data.shape[1:])
            self._write_manifest(closed=False)
        elif tuple(data.shape[1:]) != self.sample_shape:
            raise StoreError(
                f"packet shape {data.shape[1:]} does not match the store's "
                f"{self.sample_shape}"
            )

        data = data.astype(SAMPLE_DTYPE, copy=False)
        for k in range(n):
            self._pending.append(data[k])
            self._pending_times.append(float(times[k]))
        if self._first_time is None and n:
            self._first_time = float(times[0])
        if n:
            self._last_time = float(times[-1])
        while len(self._pending) >= self.chunk_samples:
            self._drain_chunk(self.chunk_samples)

    def flush(self, partial: bool = False) -> None:
        """Write buffered full chunks; ``partial=True`` also drains the tail
        as one final (possibly short) chunk."""
        while len(self._pending) >= self.chunk_samples:
            self._drain_chunk(self.chunk_samples)
        if partial and self._pending:
            self._drain_chunk(len(self._pending))

    def close(self) -> None:
        """Drain the tail and finalize the manifest (idempotent)."""
        if self._closed:
            return
        self.flush(partial=True)
        if self.sample_shape is not None:
            self._write_manifest(closed=True)
        self._closed = True
        FLIGHT.record(
            "store_close", "store", path=str(self.root),
            n_chunks=self.n_chunks, n_samples=self.n_samples,
        )

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _drain_chunk(self, n: int) -> None:
        data = np.stack(self._pending[:n], axis=0)
        times = np.asarray(self._pending_times[:n], dtype=np.float64)
        del self._pending[:n]
        del self._pending_times[:n]
        blob = pack_chunk(self.n_chunks, data, times)
        path = self.root / chunk_filename(self.n_chunks)
        t0 = time.perf_counter()
        with open(path, "wb") as fh:
            fh.write(blob)
        obs.observe(
            "store.chunk_write_s",
            time.perf_counter() - t0,
            bounds=obs.LATENCY_BOUNDS_S,
        )
        obs.add("store.chunks_written", 1)
        obs.add("store.bytes_written", len(blob))
        self.n_chunks += 1
        self.n_samples += n
        self.bytes_written += len(blob)

    def _estimated_rate(self) -> Optional[float]:
        if self.sampling_rate is not None:
            return self.sampling_rate
        if (
            self._first_time is None
            or self._last_time is None
            or self.n_samples + len(self._pending) < 2
            or self._last_time <= self._first_time
        ):
            return None
        n = self.n_samples + len(self._pending)
        return (n - 1) / (self._last_time - self._first_time)

    def _write_manifest(self, closed: bool) -> None:
        assert self.sample_shape is not None
        payload: Dict[str, Any] = {
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_VERSION,
            "closed": bool(closed),
            "chunk_samples": self.chunk_samples,
            "n_chunks": self.n_chunks if closed else None,
            "n_samples": self.n_samples if closed else None,
            "dtype": np.dtype(SAMPLE_DTYPE).name,
            "sample_shape": list(self.sample_shape),
            "carrier_wavelength": self.carrier_wavelength,
            "sampling_rate": self._estimated_rate(),
            "array": array_to_manifest(self.array),
            "tx_positions": (
                None if self.tx_positions is None else self.tx_positions.tolist()
            ),
            "trajectory": (
                None
                if self.trajectory is None
                else trajectory_to_manifest(self.trajectory)
            ),
            "user": self.metadata,
        }
        _write_json_atomic(self.root / MANIFEST_NAME, payload)


def write_trace(
    root,
    trace: CsiTrace,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    metadata: Optional[Dict[str, Any]] = None,
) -> TraceWriter:
    """Persist a whole :class:`CsiTrace` as a chunked store in one call.

    Ground truth, AP positions, and geometry all land in the manifest, so
    ``TraceReader.read_trace`` round-trips the trace exactly.

    Returns:
        The (closed) writer, for its ``n_chunks`` / ``bytes_written`` stats.
    """
    writer = TraceWriter(
        root,
        trace.array,
        carrier_wavelength=trace.carrier_wavelength,
        chunk_samples=chunk_samples,
        tx_positions=trace.tx_positions,
        trajectory=trace.trajectory,
        sampling_rate=trace.sampling_rate if trace.n_samples >= 2 else None,
        metadata=metadata,
    )
    with writer:
        writer.append(trace.data, trace.times)
    return writer
