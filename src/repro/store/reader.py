"""Integrity-checked reads of a chunked trace store: :class:`TraceReader`.

The reader scans the store's chunk files on open (headers only — payloads
stay on disk until asked for), validates the monotonic sequence, and then
serves random access (:meth:`TraceReader.read_chunk`), lazy iteration
(:meth:`TraceReader.iter_chunks`), or whole-trace assembly
(:meth:`TraceReader.read_trace`).

Faults surface through the same guard-policy vocabulary as the rest of
the ingestion stack (:mod:`repro.robustness.guard`):

* ``"raise"``  — any fault raises :class:`StoreCorruptionError` (a
  :class:`~repro.robustness.guard.GuardError`) when detected: structural
  faults (torn chunks, bad/duplicate/missing sequence numbers) at open,
  payload CRC mismatches at read.
* ``"drop"``   — faulty chunks are skipped; every action is counted.
* ``"repair"`` — faulty or missing chunks are replaced with NaN (lost)
  packets on the nominal clock when the store's sampling rate and a time
  anchor are known, so the downstream pipeline sees a clean loss burst
  instead of a silent time jump; otherwise degrades to drop.

Everything the reader saw and did is counted in a :class:`StoreReport`
whose :meth:`StoreReport.repairs` dict feeds
:class:`~repro.robustness.health.HealthReport` during replay, and the
``store.*`` metrics in :mod:`repro.obs` mirror the same counters.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.arrays.geometry import AntennaArray
from repro.channel.sampler import CsiTrace
from repro.core.config import GUARD_POLICIES
from repro.obs.flight import FLIGHT
from repro.io import (
    array_from_manifest,
    check_format_version,
    trajectory_from_manifest,
)
from repro.motionsim.trajectory import Trajectory
from repro.store.format import (
    CHUNK_GLOB,
    HEADER_SIZE,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    SUPPORTED_MANIFEST_VERSIONS,
    ChunkHeader,
    StoreCorruptionError,
    StoreError,
    payload_nbytes,
    seq_from_filename,
    unpack_header,
    unpack_payload,
)

#: The guard's policies minus ``"off"``: a store read is never unchecked.
READ_POLICIES = tuple(policy for policy in GUARD_POLICIES if policy != "off")


@dataclass
class StoreReport:
    """What the reader saw and did to one store (mirrors ``GuardReport``).

    Attributes:
        policy: The read policy that produced this report.
        n_chunks: Structurally valid chunks indexed at open.
        n_chunks_read: Chunks whose payload was read and CRC-verified.
        n_samples_read: Samples delivered (including NaN fills).
        crc_failed: Chunks whose payload failed its CRC-32.
        crc_nanfilled: CRC-failed chunks replaced by NaN loss bursts.
        chunks_dropped: Faulty chunks skipped outright.
        seq_gaps: Missing sequence numbers detected at open.
        gap_samples_filled: NaN samples synthesized for missing chunks.
        duplicates_dropped: Chunks whose header sequence number clashed
            with their file name or an already-indexed chunk.
        torn_chunks_truncated: Torn (partially written) final chunks
            discarded on open — the crash-recovery path.
    """

    policy: str
    n_chunks: int = 0
    n_chunks_read: int = 0
    n_samples_read: int = 0
    crc_failed: int = 0
    crc_nanfilled: int = 0
    chunks_dropped: int = 0
    seq_gaps: int = 0
    gap_samples_filled: int = 0
    duplicates_dropped: int = 0
    torn_chunks_truncated: int = 0

    def repairs(self) -> Dict[str, int]:
        """Nonzero counters, keyed for a ``HealthReport.repairs`` merge."""
        counters = {
            "store_crc_failed": self.crc_failed,
            "store_crc_nanfilled": self.crc_nanfilled,
            "store_chunks_dropped": self.chunks_dropped,
            "store_seq_gaps": self.seq_gaps,
            "store_gap_samples_filled": self.gap_samples_filled,
            "store_duplicates_dropped": self.duplicates_dropped,
            "store_torn_truncated": self.torn_chunks_truncated,
        }
        return {k: v for k, v in counters.items() if v}


@dataclass
class ChunkRecord:
    """One unit of replay: a decoded (or synthesized) chunk.

    Attributes:
        index: Position in the reader's entry sequence (checkpoint cursor).
        seq: On-disk chunk sequence number.
        data: (n, n_rx, n_tx, S) complex64 samples (NaN for fills).
        times: (n,) float64 timestamps.
        repairs: Store repairs attributable to THIS record (empty for a
            clean chunk) — folded into the next health report on replay.
    """

    index: int
    seq: int
    data: np.ndarray
    times: np.ndarray
    repairs: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Entry:
    kind: str  # "chunk" | "gap"
    seq: int
    path: Optional[Path] = None
    header: Optional[ChunkHeader] = None
    n_samples: int = 0  # gap entries: estimated fill length


class TraceReader:
    """Random-access, integrity-checked view of one store directory.

    Args:
        root: Store directory (must hold a manifest).
        policy: ``"raise"``, ``"drop"``, or ``"repair"`` (see module docs).
    """

    def __init__(self, root, policy: str = "repair"):
        if policy not in READ_POLICIES:
            raise ValueError(
                f"unknown store policy {policy!r}; want one of {READ_POLICIES} "
                f"(the guard's {GUARD_POLICIES} minus 'off': a store read is never "
                "unchecked)"
            )
        self.root = Path(root)
        self.policy = policy
        self.report = StoreReport(policy=policy)

        manifest_path = self.root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"{self.root} is not a trace store (no manifest)")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            self.manifest: Dict[str, Any] = json.load(fh)
        if self.manifest.get("format") != MANIFEST_FORMAT:
            raise StoreError(
                f"{manifest_path} is not a {MANIFEST_FORMAT} manifest "
                f"(format={self.manifest.get('format')!r})"
            )
        check_format_version(
            self.manifest.get("format_version"),
            SUPPORTED_MANIFEST_VERSIONS,
            what="trace store manifest",
        )
        self.sample_shape: Tuple[int, ...] = tuple(
            int(s) for s in self.manifest["sample_shape"]
        )
        self.array: AntennaArray = array_from_manifest(self.manifest["array"])
        self.carrier_wavelength = float(self.manifest["carrier_wavelength"])
        self.chunk_samples = int(self.manifest["chunk_samples"])
        rate = self.manifest.get("sampling_rate")
        self.sampling_rate: Optional[float] = None if rate is None else float(rate)
        self.closed_cleanly = bool(self.manifest.get("closed", False))
        traj = self.manifest.get("trajectory")
        self.trajectory: Optional[Trajectory] = (
            None if traj is None else trajectory_from_manifest(traj)
        )
        tx = self.manifest.get("tx_positions")
        self.tx_positions: Optional[np.ndarray] = (
            None if tx is None else np.asarray(tx, dtype=np.float64)
        )

        self._entries: List[_Entry] = []
        self._scan_chunks()

    # -- open-time structural scan ------------------------------------------

    def _fault(self, exc: StoreCorruptionError, counter: str) -> None:
        """Count a structural fault; raise it under the ``raise`` policy."""
        setattr(self.report, counter, getattr(self.report, counter) + 1)
        if counter == "seq_gaps":
            obs.add("store.seq_gaps", 1)
        else:
            obs.add("store.structural_faults", 1)
        FLIGHT.record(
            "store_fault", "store", counter=counter, error=str(exc),
            policy=self.policy,
        )
        if self.policy == "raise":
            raise exc

    def _scan_chunks(self) -> None:
        files = sorted(self.root.glob(CHUNK_GLOB))
        last_name_seq = seq_from_filename(files[-1].name) if files else -1
        seen: Dict[int, _Entry] = {}
        for path in files:
            name_seq = seq_from_filename(path.name)
            size = path.stat().st_size
            is_last = name_seq == last_name_seq
            if size < HEADER_SIZE:
                if is_last:
                    self._fault(
                        StoreCorruptionError(
                            f"{path.name}: torn final chunk ({size} bytes)"
                        ),
                        "torn_chunks_truncated",
                    )
                    continue
                self._fault(
                    StoreCorruptionError(f"{path.name}: truncated header"),
                    "crc_failed",
                )
                self.report.chunks_dropped += 1
                continue
            with open(path, "rb") as fh:
                head = fh.read(HEADER_SIZE)
            try:
                header = unpack_header(head, where=path.name)
            except StoreCorruptionError as exc:
                self._fault(exc, "crc_failed")
                self.report.chunks_dropped += 1
                continue
            if header.seq != name_seq or header.seq in seen:
                self._fault(
                    StoreCorruptionError(
                        f"{path.name}: duplicate/mismatched sequence number "
                        f"{header.seq}"
                    ),
                    "duplicates_dropped",
                )
                continue
            expected = HEADER_SIZE + header.payload_bytes
            if size < expected:
                if is_last:
                    self._fault(
                        StoreCorruptionError(
                            f"{path.name}: torn final chunk "
                            f"({size} of {expected} bytes)"
                        ),
                        "torn_chunks_truncated",
                    )
                    continue
                self._fault(
                    StoreCorruptionError(
                        f"{path.name}: truncated payload "
                        f"({size} of {expected} bytes)"
                    ),
                    "crc_failed",
                )
                self.report.chunks_dropped += 1
                continue
            if header.payload_bytes != payload_nbytes(
                header.n_samples, self.sample_shape
            ):
                self._fault(
                    StoreCorruptionError(
                        f"{path.name}: payload length disagrees with "
                        f"{header.n_samples} samples of {self.sample_shape}"
                    ),
                    "crc_failed",
                )
                self.report.chunks_dropped += 1
                continue
            seen[header.seq] = _Entry(
                kind="chunk", seq=header.seq, path=path, header=header
            )

        expected_seq = 0
        for seq in sorted(seen):
            for gap_seq in range(expected_seq, seq):
                self._fault(
                    StoreCorruptionError(f"missing chunk seq {gap_seq}"),
                    "seq_gaps",
                )
                if self.policy == "repair":
                    self._entries.append(
                        _Entry(
                            kind="gap",
                            seq=gap_seq,
                            n_samples=self.chunk_samples,
                        )
                    )
            self._entries.append(seen[seq])
            expected_seq = seq + 1
        self.report.n_chunks = len(seen)

    # -- store geometry ------------------------------------------------------

    @property
    def n_chunks(self) -> int:
        """Structurally valid chunks (payloads not yet CRC-verified)."""
        return self.report.n_chunks

    @property
    def n_entries(self) -> int:
        """Replay units: valid chunks plus (under ``repair``) gap fills."""
        return len(self._entries)

    @property
    def n_samples(self) -> int:
        """Samples across valid chunks, per their headers."""
        return sum(
            e.header.n_samples for e in self._entries if e.header is not None
        )

    def __len__(self) -> int:
        return self.n_chunks

    def _nominal_dt(self) -> Optional[float]:
        if self.sampling_rate and self.sampling_rate > 0:
            return 1.0 / self.sampling_rate
        return None

    # -- access --------------------------------------------------------------

    def read_chunk(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Random access: decode the ``k``-th valid chunk, verifying its CRC.

        Explicit random access never papers over corruption — a CRC
        mismatch raises regardless of policy.

        Returns:
            ``(data, times)``.
        """
        chunks = [e for e in self._entries if e.kind == "chunk"]
        entry = chunks[k]  # IndexError is the right error here
        return self._load_payload(entry)

    def iter_chunks(
        self, start: int = 0, last_time: Optional[float] = None
    ) -> Iterator[ChunkRecord]:
        """Lazily decode chunks in sequence order, applying the policy.

        Args:
            start: Entry index to resume from (a checkpoint cursor).
            last_time: Timestamp of the sample preceding ``start`` — the
                clock anchor for NaN fills right at the resume point.
        """
        dt = self._nominal_dt()
        for index in range(start, len(self._entries)):
            entry = self._entries[index]
            if entry.kind == "gap":
                # The gap itself was counted (store_seq_gaps) at open; the
                # record only reports the read-time fill.
                record = self._fill_record(
                    index, entry, last_time, dt, "gap_samples_filled",
                    base={},
                )
                if record is None:
                    continue
                last_time = float(record.times[-1])
                yield record
                continue
            try:
                data, times = self._load_payload(entry)
            except StoreCorruptionError as exc:
                self.report.crc_failed += 1
                obs.add("store.crc_failures", 1)
                FLIGHT.record(
                    "store_fault", "store", counter="crc_failed",
                    error=str(exc), policy=self.policy, seq=entry.seq,
                )
                if self.policy == "raise":
                    raise
                record = self._fill_record(
                    index, entry, last_time, dt, "crc_nanfilled",
                    base={"store_crc_failed": 1},
                )
                if record is None:
                    self.report.chunks_dropped += 1
                    continue
                last_time = float(record.times[-1])
                yield record
                continue
            self.report.n_chunks_read += 1
            self.report.n_samples_read += int(times.size)
            if times.size:
                last_time = float(times[-1])
            yield ChunkRecord(index=index, seq=entry.seq, data=data, times=times)

    def _fill_record(
        self,
        index: int,
        entry: _Entry,
        last_time: Optional[float],
        dt: Optional[float],
        counter: str,
        base: Dict[str, int],
    ) -> Optional[ChunkRecord]:
        """NaN loss burst standing in for a missing/corrupt chunk.

        Possible only under ``repair`` with a known nominal clock and a
        time anchor; otherwise the chunk is dropped (counted by caller's
        ``base`` merge staying in the report).
        """
        n = entry.n_samples or (
            entry.header.n_samples if entry.header is not None else 0
        )
        if self.policy != "repair" or dt is None or last_time is None or n <= 0:
            return None
        increment = n if counter == "gap_samples_filled" else 1
        setattr(self.report, counter, getattr(self.report, counter) + increment)
        self.report.n_samples_read += n
        times = last_time + dt * np.arange(1, n + 1)
        data = np.full(
            (n, *self.sample_shape), np.nan + 1j * np.nan, dtype=np.complex64
        )
        repairs = dict(base)
        repairs[f"store_{counter}"] = n if counter == "gap_samples_filled" else 1
        FLIGHT.record(
            "store_repair", "store", counter=counter, seq=entry.seq,
            n_samples=n,
        )
        return ChunkRecord(
            index=index, seq=entry.seq, data=data, times=times, repairs=repairs
        )

    def read_trace(self) -> CsiTrace:
        """Assemble the whole store into a :class:`CsiTrace`.

        Ground truth comes from the manifest when present; a store
        recorded live (no truth) gets a zero placeholder trajectory on
        the recorded clock, exactly like the streaming estimator builds.
        """
        datas, times_parts = [], []
        for record in self.iter_chunks():
            datas.append(record.data)
            times_parts.append(record.times)
        if not datas:
            raise StoreError(f"{self.root} holds no readable chunks")
        data = np.concatenate(datas, axis=0)
        times = np.concatenate(times_parts, axis=0)
        trajectory = self.trajectory
        if trajectory is None or trajectory.times.shape != times.shape:
            n = times.size
            trajectory = Trajectory(
                times=times,
                positions=np.zeros((n, 2)),
                orientations=np.zeros(n),
            )
        tx = self.tx_positions
        if tx is None:
            tx = np.zeros((self.sample_shape[1], 2))
        return CsiTrace(
            data=data,
            times=times,
            array=self.array,
            trajectory=trajectory,
            tx_positions=tx,
            carrier_wavelength=self.carrier_wavelength,
        )

    def verify(self) -> StoreReport:
        """Full integrity scan (every payload CRC) without raising.

        Returns:
            A fresh :class:`StoreReport`; the reader's own report is
            untouched.
        """
        scanner = TraceReader(self.root, policy="drop")
        for _ in scanner.iter_chunks():
            pass
        return scanner.report

    # -- internals -----------------------------------------------------------

    def _load_payload(self, entry: _Entry) -> Tuple[np.ndarray, np.ndarray]:
        assert entry.path is not None and entry.header is not None
        header = entry.header
        t0 = time.perf_counter()
        with open(entry.path, "rb") as fh:
            fh.seek(HEADER_SIZE)
            payload = fh.read(header.payload_bytes)
        data, times = unpack_payload(
            header, payload, self.sample_shape, where=entry.path.name
        )
        obs.observe(
            "store.chunk_read_s",
            time.perf_counter() - t0,
            bounds=obs.LATENCY_BOUNDS_S,
        )
        obs.add("store.chunks_read", 1)
        obs.add("store.bytes_read", HEADER_SIZE + header.payload_bytes)
        return data, times

    def close(self) -> None:
        """No-op: every read opens and closes its own file.  Kept so
        callers can hold the reader in a ``with`` block."""

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
