"""Wire format of the network ingestion front-end (see ``docs/network.md``).

Every message on a RIM ingest connection is one **frame**: a 28-byte
little-endian header followed by a payload.  Header layout (``<4sHHIQII``,
via the shared :class:`repro.binfmt.HeaderCodec`):

======  ====  ===========  ==============================================
offset  size  field        meaning
======  ====  ===========  ==============================================
0       4     magic        ``b"RIMN"``
4       2     version      wire format version (this build speaks 1)
6       2     frame_type   one of the ``FRAME_*`` constants
8       4     session_id   server-assigned numeric session id (0 in HELLO)
12      8     seq          monotonic CSI sample seq (DATA) / monotonic
                           update seq (UPDATE) / cumulative ack seq + 1
                           (ACK, PING, BYE, UACK) / 0 otherwise
20      4     payload_len  payload length in bytes
24      4     crc32        CRC-32 over header[0:24] + payload
======  ====  ===========  ==============================================

The CRC covers the header fields as well as the payload, so a bit flip
anywhere in a frame — including its sequence number — is detected; a
frame never decodes to wrong data (enforced by a Hypothesis property
test).  :class:`FrameDecoder` consumes a raw byte stream incrementally
and **resynchronizes** after corruption by scanning for the next magic,
so one mangled frame costs exactly that frame, not the connection.

Payloads:

* ``HELLO`` / ``WELCOME`` / ``ERROR`` — UTF-8 JSON (session name, array
  geometry, resume seq + resume token, ...).
* ``DATA`` — 8-byte float64 timestamp followed by the complex64 CSI
  packet bytes (shape fixed per session by the HELLO).
* ``UPDATE`` — one :class:`~repro.core.streaming.MotionUpdate`, encoded
  by :func:`encode_update` (raw float64/uint8 arrays + JSON health tail;
  decoding is bit-exact, which the reconnect-resume guarantee relies on).
  The ``seq`` header field carries the update's own monotonic seq: the
  server retains every update until the client's cumulative ``UACK``
  covers it, resending unacked updates after a reconnect, and the client
  suppresses resent duplicates by seq — so the update stream survives a
  mid-flight disconnect without loss or duplication.
* ``ACK`` / ``PING`` / ``PONG`` / ``BYE`` / ``UACK`` — empty (the seq
  header field carries the cumulative ack + 1 where applicable).
* ``TELEMETRY`` — side-band provenance (best-effort, loss-tolerant, only
  sent while :mod:`repro.obs` is enabled).  Client -> server: an 8-byte
  float64 ``perf_counter`` create stamp for the *next* DATA sample (the
  seq field carries that sample's seq).  Server -> client: a JSON
  ``{"provenance": ...}`` latency breakdown for an emitted update (the
  seq field carries the update seq).  A dedicated frame type keeps every
  pre-existing frame layout byte-identical to PR 6's golden bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.binfmt import HeaderCodec, crc32_of
from repro.core.streaming import MotionUpdate
from repro.robustness.health import HealthReport

MAGIC = b"RIMN"
WIRE_VERSION = 1
SUPPORTED_WIRE_VERSIONS = (1,)

# Frame types.
FRAME_HELLO = 1  # client -> server: open/reattach a session (JSON payload)
FRAME_WELCOME = 2  # server -> client: session id + resume seq (JSON payload)
FRAME_DATA = 3  # client -> server: one CSI sample (timestamp + packet bytes)
FRAME_ACK = 4  # server -> client: cumulative delivery ack (seq field)
FRAME_UPDATE = 5  # server -> client: one MotionUpdate
FRAME_PING = 6  # server -> client: heartbeat (carries the current ack)
FRAME_PONG = 7  # client -> server: heartbeat reply
FRAME_BYE = 8  # either: graceful end of stream
FRAME_ERROR = 9  # server -> client: fatal protocol error (JSON payload)
FRAME_UACK = 10  # client -> server: cumulative update-stream ack (seq field)
FRAME_TELEMETRY = 11  # either: side-band provenance (sample stamp / breakdown)

FRAME_TYPES = (
    FRAME_HELLO,
    FRAME_WELCOME,
    FRAME_DATA,
    FRAME_ACK,
    FRAME_UPDATE,
    FRAME_PING,
    FRAME_PONG,
    FRAME_BYE,
    FRAME_ERROR,
    FRAME_UACK,
    FRAME_TELEMETRY,
)

FRAME_NAMES = {
    FRAME_HELLO: "HELLO",
    FRAME_WELCOME: "WELCOME",
    FRAME_DATA: "DATA",
    FRAME_ACK: "ACK",
    FRAME_UPDATE: "UPDATE",
    FRAME_PING: "PING",
    FRAME_PONG: "PONG",
    FRAME_BYE: "BYE",
    FRAME_ERROR: "ERROR",
    FRAME_UACK: "UACK",
    FRAME_TELEMETRY: "TELEMETRY",
}

# Frames larger than this are treated as header corruption: no legitimate
# CSI packet or update comes close, and a mangled payload_len must not
# stall the decoder waiting for bytes that will never arrive.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

TIMESTAMP_STRUCT = struct.Struct("<d")


class FrameError(ValueError):
    """A malformed or corrupt wire frame."""


HEADER_CODEC = HeaderCodec(
    MAGIC, "<4sHHIQII", SUPPORTED_WIRE_VERSIONS, error_cls=FrameError
)
HEADER_SIZE = HEADER_CODEC.size  # 28 bytes
_CRC_OFFSET = HEADER_SIZE - 4  # crc32 is the final header field


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    frame_type: int
    session_id: int
    seq: int
    payload: bytes

    @property
    def type_name(self) -> str:
        return FRAME_NAMES.get(self.frame_type, f"type-{self.frame_type}")


def pack_frame(
    frame_type: int, session_id: int = 0, seq: int = 0, payload: bytes = b""
) -> bytes:
    """Encode one frame (header + payload) ready to write to a socket."""
    if frame_type not in FRAME_TYPES:
        raise FrameError(f"unknown frame type {frame_type}")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    header = HEADER_CODEC.pack(
        WIRE_VERSION, frame_type, session_id, seq, len(payload), 0
    )
    crc = crc32_of(header[:_CRC_OFFSET], payload)
    return header[:_CRC_OFFSET] + struct.pack("<I", crc) + payload


def unpack_frame(buf: bytes, where: str = "frame") -> Frame:
    """Decode one complete frame from an exact buffer.

    Raises:
        FrameError: On truncation, bad magic/version, an unknown frame
            type, or a CRC mismatch anywhere in the frame.
    """
    (
        _version,
        frame_type,
        session_id,
        seq,
        payload_len,
        crc,
    ) = HEADER_CODEC.unpack(buf, where=where)
    if frame_type not in FRAME_TYPES:
        raise FrameError(f"{where}: unknown frame type {frame_type}")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise FrameError(f"{where}: implausible payload length {payload_len}")
    if len(buf) < HEADER_SIZE + payload_len:
        raise FrameError(
            f"{where}: torn frame ({len(buf) - HEADER_SIZE} of "
            f"{payload_len} payload bytes)"
        )
    payload = bytes(buf[HEADER_SIZE : HEADER_SIZE + payload_len])
    if crc32_of(bytes(buf[:_CRC_OFFSET]), payload) != crc:
        raise FrameError(f"{where}: frame CRC-32 mismatch")
    return Frame(
        frame_type=frame_type, session_id=session_id, seq=seq, payload=payload
    )


class FrameDecoder:
    """Incremental frame decoder with corruption resync.

    Feed raw socket bytes with :meth:`feed`; pull complete, CRC-verified
    frames with :meth:`frames`.  Corruption never yields a bad frame:

    * a frame whose CRC fails is dropped (``n_crc_dropped``) and the
      decoder skips past its magic, rescanning the remaining bytes;
    * junk between frames (mangled headers, partial garbage) is skipped
      by scanning for the next magic (``n_resyncs`` counts each skip).

    The decoder is transport-agnostic and never blocks: with fewer bytes
    than a complete frame buffered, :meth:`frames` simply yields nothing.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.n_frames = 0
        self.n_crc_dropped = 0
        self.n_resyncs = 0

    @property
    def buffered_bytes(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def frames(self) -> Iterator[Frame]:
        """Yield every complete frame currently decodable."""
        while True:
            frame = self._next_frame()
            if frame is None:
                return
            yield frame

    def _next_frame(self) -> Optional[Frame]:
        while True:
            at = self._buf.find(MAGIC)
            if at < 0:
                # No magic in sight: keep a potential partial-magic tail.
                if len(self._buf) > 3:
                    self.n_resyncs += 1
                    del self._buf[:-3]
                return None
            if at > 0:
                self.n_resyncs += 1
                del self._buf[:at]
            if len(self._buf) < HEADER_SIZE:
                return None
            try:
                (
                    _version,
                    frame_type,
                    _session_id,
                    _seq,
                    payload_len,
                    _crc,
                ) = HEADER_CODEC.unpack(bytes(self._buf[:HEADER_SIZE]))
                if frame_type not in FRAME_TYPES:
                    raise FrameError(f"unknown frame type {frame_type}")
                if payload_len > MAX_PAYLOAD_BYTES:
                    raise FrameError(f"implausible payload length {payload_len}")
            except FrameError:
                # Mangled header: skip this magic and rescan.
                self.n_resyncs += 1
                del self._buf[: len(MAGIC)]
                continue
            total = HEADER_SIZE + payload_len
            if len(self._buf) < total:
                return None
            try:
                frame = unpack_frame(bytes(self._buf[:total]))
            except FrameError:
                # Header looked sane but the frame is corrupt: drop it by
                # skipping its magic, so any real frame hiding inside the
                # corrupt span is still found on rescan.
                self.n_crc_dropped += 1
                del self._buf[: len(MAGIC)]
                continue
            del self._buf[:total]
            self.n_frames += 1
            return frame


# -- DATA payloads -------------------------------------------------------------


def pack_data_payload(timestamp: float, packet: np.ndarray) -> bytes:
    """Encode one CSI sample: float64 timestamp + complex64 packet bytes."""
    packet = np.ascontiguousarray(packet, dtype=np.complex64)
    return TIMESTAMP_STRUCT.pack(float(timestamp)) + packet.tobytes()


def unpack_data_payload(
    payload: bytes, sample_shape: Tuple[int, ...], where: str = "DATA"
) -> Tuple[float, np.ndarray]:
    """Decode a DATA payload into ``(timestamp, packet)``.

    Raises:
        FrameError: When the payload length disagrees with the session's
            sample shape (a frame from a different geometry, or a
            corrupt-but-CRC-colliding payload; both are dropped upstream).
    """
    expected = TIMESTAMP_STRUCT.size + int(np.prod(sample_shape)) * 8
    if len(payload) != expected:
        raise FrameError(
            f"{where}: payload of {len(payload)} bytes does not hold one "
            f"sample of shape {tuple(sample_shape)} ({expected} bytes)"
        )
    (timestamp,) = TIMESTAMP_STRUCT.unpack_from(payload)
    packet = np.frombuffer(
        payload, dtype=np.complex64, offset=TIMESTAMP_STRUCT.size
    ).reshape(sample_shape)
    return float(timestamp), packet.copy()


# -- TELEMETRY payloads --------------------------------------------------------


def pack_sample_telemetry(session_id: int, seq: int, created_s: float) -> bytes:
    """Client->server TELEMETRY: the create stamp for DATA sample ``seq``.

    Sent best-effort *before* the DATA frame it describes, bypassing the
    fault injector, so telemetry can never perturb the deterministic
    (seed, seq) fault schedule or the data stream itself.
    """
    return pack_frame(
        FRAME_TELEMETRY,
        session_id=session_id,
        seq=seq,
        payload=TIMESTAMP_STRUCT.pack(float(created_s)),
    )


def unpack_sample_telemetry(payload: bytes, where: str = "TELEMETRY") -> float:
    """Decode a client->server TELEMETRY payload into the create stamp."""
    if len(payload) != TIMESTAMP_STRUCT.size:
        raise FrameError(
            f"{where}: sample telemetry payload must be "
            f"{TIMESTAMP_STRUCT.size} bytes, got {len(payload)}"
        )
    (created_s,) = TIMESTAMP_STRUCT.unpack(payload)
    return float(created_s)


def pack_update_telemetry(
    session_id: int, update_seq: int, breakdown: Dict[str, Any]
) -> bytes:
    """Server->client TELEMETRY: the latency breakdown of update ``seq``."""
    return pack_frame(
        FRAME_TELEMETRY,
        session_id=session_id,
        seq=update_seq,
        payload=pack_json_payload({"provenance": breakdown}),
    )


def unpack_update_telemetry(
    payload: bytes, where: str = "TELEMETRY"
) -> Dict[str, Any]:
    """Decode a server->client TELEMETRY payload into the breakdown dict."""
    decoded = unpack_json_payload(payload, where=where)
    breakdown = decoded.get("provenance")
    if not isinstance(breakdown, dict):
        raise FrameError(f"{where}: update telemetry missing 'provenance'")
    return breakdown


# -- JSON payloads -------------------------------------------------------------


def pack_json_payload(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def unpack_json_payload(payload: bytes, where: str = "frame") -> Dict[str, Any]:
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"{where}: malformed JSON payload ({exc})") from None
    if not isinstance(decoded, dict):
        raise FrameError(f"{where}: JSON payload must be an object")
    return decoded


# -- UPDATE payloads -----------------------------------------------------------

_UPDATE_HEAD = struct.Struct("<II")  # (n_samples, json_tail_len)


def encode_update(update: MotionUpdate) -> bytes:
    """Serialize a MotionUpdate for an UPDATE frame (bit-exact arrays).

    Layout: ``<II`` (sample count, JSON tail length), then ``times`` /
    ``speed`` / ``heading`` as float64 and ``moving`` as uint8, then a
    JSON tail carrying the distances (via repr — floats round-trip
    exactly) and the health report.  ``stats`` does not travel (its
    provenance breakdown has its own TELEMETRY frame).
    """
    n = int(update.times.size)
    tail: Dict[str, Any] = {
        "block_distance": float(update.block_distance),
        "total_distance": float(update.total_distance),
        "health": _health_to_json(update.health),
    }
    tail_bytes = json.dumps(tail, sort_keys=True).encode("utf-8")
    return b"".join(
        (
            _UPDATE_HEAD.pack(n, len(tail_bytes)),
            np.ascontiguousarray(update.times, dtype=np.float64).tobytes(),
            np.ascontiguousarray(update.speed, dtype=np.float64).tobytes(),
            np.ascontiguousarray(update.heading, dtype=np.float64).tobytes(),
            np.ascontiguousarray(update.moving, dtype=np.uint8).tobytes(),
            tail_bytes,
        )
    )


def decode_update(payload: bytes, where: str = "UPDATE") -> MotionUpdate:
    """Inverse of :func:`encode_update`."""
    if len(payload) < _UPDATE_HEAD.size:
        raise FrameError(f"{where}: truncated update payload")
    n, tail_len = _UPDATE_HEAD.unpack_from(payload)
    arrays_bytes = n * (8 + 8 + 8 + 1)
    expected = _UPDATE_HEAD.size + arrays_bytes + tail_len
    if len(payload) != expected:
        raise FrameError(
            f"{where}: update payload length {len(payload)} != {expected} "
            f"for {n} samples"
        )
    at = _UPDATE_HEAD.size
    times = np.frombuffer(payload, dtype=np.float64, count=n, offset=at).copy()
    at += 8 * n
    speed = np.frombuffer(payload, dtype=np.float64, count=n, offset=at).copy()
    at += 8 * n
    heading = np.frombuffer(payload, dtype=np.float64, count=n, offset=at).copy()
    at += 8 * n
    moving = (
        np.frombuffer(payload, dtype=np.uint8, count=n, offset=at)
        .astype(bool)
        .copy()
    )
    at += n
    tail = unpack_json_payload(payload[at:], where=where)
    return MotionUpdate(
        times=times,
        speed=speed,
        heading=heading,
        moving=moving,
        block_distance=float(tail["block_distance"]),
        total_distance=float(tail["total_distance"]),
        health=_health_from_json(tail.get("health")),
    )


def _health_to_json(health: Optional[HealthReport]) -> Optional[Dict[str, Any]]:
    if health is None:
        return None
    liveness = health.chain_liveness
    return {
        "n_samples": int(health.n_samples),
        "n_chains": int(health.n_chains),
        "loss_rate": float(health.loss_rate),
        "chain_liveness": (
            None
            if liveness is None
            else [float(v) for v in np.asarray(liveness, dtype=np.float64)]
        ),
        "dead_chains": [int(c) for c in health.dead_chains],
        "usable_pairs": int(health.usable_pairs),
        "usable_groups": int(health.usable_groups),
        "alignment_confidence": float(health.alignment_confidence),
        "repairs": {str(k): int(v) for k, v in health.repairs.items()},
        "degraded": bool(health.degraded),
        "heading_unresolved": bool(health.heading_unresolved),
    }


def _health_from_json(payload: Optional[Dict[str, Any]]) -> Optional[HealthReport]:
    if payload is None:
        return None
    liveness = payload.get("chain_liveness")
    return HealthReport(
        n_samples=int(payload["n_samples"]),
        n_chains=int(payload["n_chains"]),
        loss_rate=float(payload["loss_rate"]),
        chain_liveness=(
            None if liveness is None else np.asarray(liveness, dtype=np.float64)
        ),
        dead_chains=[int(c) for c in payload["dead_chains"]],
        usable_pairs=int(payload["usable_pairs"]),
        usable_groups=int(payload["usable_groups"]),
        alignment_confidence=float(payload["alignment_confidence"]),
        repairs={str(k): int(v) for k, v in payload["repairs"].items()},
        degraded=bool(payload["degraded"]),
        heading_unresolved=bool(payload["heading_unresolved"]),
    )
