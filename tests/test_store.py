"""Chunked trace store: round trips, the corruption matrix, serving and replay.

The acceptance contract (ISSUE 5): a corrupted chunk under the ``repair``
policy never crashes the pipeline and is visible in both
``HealthReport.repairs`` and the ``store.*`` metrics; every fault class
(bit-flip payload, truncated tail, duplicated / missing sequence number)
behaves per policy (raise / drop / repair).
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro import obs
from repro.core.config import RimConfig
from repro.io import check_format_version
from repro.robustness.guard import GuardError
from repro.store import (
    CheckpointedReplayer,
    StoreCorruptionError,
    StoreError,
    TraceReader,
    TraceWriter,
    write_trace,
)
from repro.store.format import HEADER_SIZE, MANIFEST_NAME

CHUNK = 64  # small chunks so a short trace spans many files


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, line_trace):
    """One pristine store of the shared line trace; tests copy, never mutate."""
    root = tmp_path_factory.mktemp("pristine") / "store"
    write_trace(root, line_trace, chunk_samples=CHUNK)
    return root


@pytest.fixture()
def store(recorded, tmp_path):
    """A private, mutable copy of the pristine store."""
    dest = tmp_path / "store"
    shutil.copytree(recorded, dest)
    return dest


def _chunk(store, k):
    return store / f"chunk-{k:08d}.rimc"


def _bitflip(store, k, offset=HEADER_SIZE + 40):
    path = _chunk(store, k)
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


# -- round trips --------------------------------------------------------------


def test_write_read_round_trip(store, line_trace):
    with TraceReader(store, policy="raise") as reader:
        assert reader.n_chunks == -(-line_trace.n_samples // CHUNK)
        assert reader.n_samples == line_trace.n_samples
        out = reader.read_trace()
    assert np.array_equal(out.data, line_trace.data)
    assert np.array_equal(out.times, line_trace.times)
    assert np.array_equal(out.trajectory.positions, line_trace.trajectory.positions)
    assert np.array_equal(out.tx_positions, line_trace.tx_positions)
    assert out.carrier_wavelength == line_trace.carrier_wavelength
    assert out.array.name == line_trace.array.name
    assert not reader.report.repairs()


def test_random_access_matches_iteration(store):
    with TraceReader(store, policy="raise") as reader:
        records = list(reader.iter_chunks())
        assert len(records) == reader.n_chunks
        for k, record in enumerate(records):
            data, times = reader.read_chunk(k)
            assert np.array_equal(data, record.data)
            assert np.array_equal(times, record.times)
        with pytest.raises(IndexError):
            reader.read_chunk(reader.n_chunks)


def test_writer_refuses_existing_store(store, three_antenna):
    with pytest.raises(StoreError, match="existing recording"):
        TraceWriter(store, three_antenna)


def test_writer_rejects_shape_change(tmp_path, three_antenna):
    with TraceWriter(tmp_path / "s", three_antenna, sampling_rate=100.0) as w:
        w.append(np.zeros((3, 1, 8), dtype=np.complex64))
        with pytest.raises(StoreError, match="does not match"):
            w.append(np.zeros((3, 2, 8), dtype=np.complex64))
    with pytest.raises(StoreError, match="closed"):
        w.append(np.zeros((3, 1, 8), dtype=np.complex64))
    with pytest.raises(StoreError, match="RX chains"):
        with TraceWriter(tmp_path / "s2", three_antenna, sampling_rate=100.0) as w2:
            w2.append(np.zeros((2, 1, 8), dtype=np.complex64))


def test_writer_synthesizes_times_from_rate(tmp_path, three_antenna):
    with TraceWriter(tmp_path / "s", three_antenna, sampling_rate=50.0) as w:
        w.append(np.zeros((10, 3, 1, 8), dtype=np.complex64))
    with TraceReader(tmp_path / "s", policy="raise") as reader:
        _, times = reader.read_chunk(0)
    assert np.allclose(times, np.arange(10) / 50.0)


def test_manifest_version_rejected(store):
    manifest = json.loads((store / MANIFEST_NAME).read_text())
    manifest["format_version"] = 99
    (store / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version 99"):
        TraceReader(store)


def test_check_format_version_shared_helper():
    assert check_format_version(1, (1, 2)) == 1
    with pytest.raises(ValueError, match="unsupported"):
        check_format_version(3, (1, 2))
    with pytest.raises(ValueError, match="not an integer"):
        check_format_version("abc", (1,))


# -- the corruption matrix ----------------------------------------------------


def _corrupt(store, fault):
    """Apply one fault class; return the expected nonzero report keys."""
    if fault == "bitflip":
        _bitflip(store, 1)
        return {"store_crc_failed", "store_crc_nanfilled"}
    if fault == "truncated_tail":
        last = max(store.glob("chunk-*.rimc"))
        last.write_bytes(last.read_bytes()[: HEADER_SIZE + 7])
        return {"store_torn_truncated"}
    if fault == "duplicate_seq":
        # The repair policy additionally NaN-fills the hole the dropped
        # duplicate leaves behind.
        _chunk(store, 2).write_bytes(_chunk(store, 1).read_bytes())
        return {
            "store_duplicates_dropped",
            "store_seq_gaps",
            "store_gap_samples_filled",
        }
    if fault == "missing_seq":
        _chunk(store, 1).unlink()
        return {"store_seq_gaps", "store_gap_samples_filled"}
    raise AssertionError(fault)


FAULTS = ("bitflip", "truncated_tail", "duplicate_seq", "missing_seq")


@pytest.mark.parametrize("fault", FAULTS)
def test_corruption_raise_policy(store, fault):
    _corrupt(store, fault)
    with pytest.raises(StoreCorruptionError):
        reader = TraceReader(store, policy="raise")
        list(reader.iter_chunks())  # bitflip is only detected at read time


@pytest.mark.parametrize("fault", FAULTS)
def test_corruption_is_guarderror(store, fault):
    """Store corruption composes with existing ``except GuardError`` handlers."""
    _corrupt(store, fault)
    with pytest.raises(GuardError):
        list(TraceReader(store, policy="raise").iter_chunks())


@pytest.mark.parametrize("fault", FAULTS)
def test_corruption_drop_policy(store, fault, line_trace):
    _corrupt(store, fault)
    reader = TraceReader(store, policy="drop")
    records = list(reader.iter_chunks())
    repairs = reader.report.repairs()
    assert repairs, "drop must still count what it dropped"
    # Drop never fills: fewer samples than recorded, none of them NaN-filled.
    total = sum(r.times.size for r in records)
    assert total < line_trace.n_samples
    assert reader.report.crc_nanfilled == 0
    assert reader.report.gap_samples_filled == 0


@pytest.mark.parametrize("fault", FAULTS)
def test_corruption_repair_policy(store, fault, line_trace):
    expected_keys = _corrupt(store, fault)
    reader = TraceReader(store, policy="repair")
    records = list(reader.iter_chunks())
    repairs = reader.report.repairs()
    assert set(repairs) == expected_keys
    if fault in ("bitflip", "missing_seq"):
        # Repair restores the full sample count with NaN loss bursts on
        # the nominal clock, and the stream of timestamps stays monotonic.
        total = sum(r.times.size for r in records)
        assert total == line_trace.n_samples
        filled = [r for r in records if r.repairs]
        assert len(filled) == 1
        assert np.isnan(filled[0].data.real).all()
    times = np.concatenate([r.times for r in records])
    assert np.all(np.diff(times) > 0)


@pytest.mark.parametrize("fault", FAULTS)
def test_repair_replay_never_crashes_and_reports_health(store, fault):
    """The acceptance criterion: corrupt chunk + ``repair`` -> clean replay
    with the store repairs visible in ``HealthReport.repairs``."""
    expected_keys = _corrupt(store, fault)
    reader = TraceReader(store, policy="repair")
    replayer = CheckpointedReplayer(
        reader, config=RimConfig(guard_policy="repair"), block_seconds=0.5
    )
    updates = replayer.run()
    assert updates, "replay must still produce motion updates"
    seen = set()
    for update in updates:
        assert update.health is not None
        seen.update(k for k in update.health.repairs if k.startswith("store_"))
    # Everything the reader repaired before the last update must have been
    # folded into some health report (the torn tail is truncated at open,
    # before any chunk is fed, so it is reported from the first block on).
    assert expected_keys & seen == expected_keys & set(reader.report.repairs())


def test_store_metrics_published(store):
    _bitflip(store, 1)
    obs.reset()
    obs.enable()
    try:
        reader = TraceReader(store, policy="repair")
        list(reader.iter_chunks())
        metrics = obs.METRICS
        assert metrics.get("store.chunks_read").value == reader.n_chunks - 1
        assert metrics.get("store.crc_failures").value == 1
        assert metrics.get("store.bytes_read").value > 0
    finally:
        obs.reset()
        obs.disable()


def test_torn_final_chunk_crash_recovery(tmp_path, three_antenna):
    """A writer killed mid-chunk loses at most the torn tail."""
    root = tmp_path / "s"
    w = TraceWriter(root, three_antenna, sampling_rate=100.0, chunk_samples=16)
    w.append(np.ones((40, 3, 1, 8), dtype=np.complex64))
    # 2 full chunks on disk, 8 samples still buffered; simulate the crash
    # by abandoning the writer and tearing the last durable chunk.
    last = max(root.glob("chunk-*.rimc"))
    last.write_bytes(last.read_bytes()[:20])
    reader = TraceReader(root, policy="repair")
    assert reader.report.torn_chunks_truncated == 1
    assert reader.n_chunks == 1
    out = list(reader.iter_chunks())
    assert sum(r.times.size for r in out) == 16


# -- serve integration --------------------------------------------------------


def test_record_on_ingest_round_trip(tmp_path, line_trace):
    from repro.serve.session import SessionManager

    manager = SessionManager(record_dir=tmp_path / "fleet")
    manager.create("rx00", line_trace.array, line_trace.sampling_rate,
                   carrier_wavelength=line_trace.carrier_wavelength)
    for k in range(line_trace.n_samples):
        manager.push("rx00", line_trace.data[k], float(line_trace.times[k]))
    manager.flush_all()
    with TraceReader(tmp_path / "fleet" / "rx00", policy="raise") as reader:
        out = reader.read_trace()
    assert np.array_equal(out.data, line_trace.data)
    assert np.array_equal(out.times, line_trace.times)


def test_serve_sim_store_dir_replays_recording(tmp_path, line_trace):
    from repro.serve.simulate import run_serve_sim, store_receivers

    fleet = tmp_path / "fleet"
    live = run_serve_sim([("rx00", line_trace)], n_workers=1, record_dir=fleet)
    replayed = run_serve_sim(store_receivers(fleet), n_workers=1)
    assert replayed["aggregate"]["total_samples"] == line_trace.n_samples
    assert replayed["aggregate"]["total_distance_m"] == pytest.approx(
        live["aggregate"]["total_distance_m"]
    )
