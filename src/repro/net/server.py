"""Asyncio TCP ingestion server: wire frames in, MotionUpdates back out.

One connection carries one named session.  The server decodes frames with
the resyncing :class:`~repro.net.framing.FrameDecoder` (corrupt frames
cost themselves, not the connection), restores sample order behind a
bounded reorder window (:class:`SeqTracker`), suppresses duplicates,
skips unrecoverable gaps, and feeds the surviving samples — in sequence
order — to a :class:`~repro.serve.session.SessionManager` through its
existing backpressure policies.  Emitted ``MotionUpdate``s stream back as
UPDATE frames; cumulative ACKs tell the client the delivered high-water
mark so a reconnect resumes exactly after it.

Fault accounting goes to two places so neither dashboards nor health
consumers need the other: ``net.*`` obs metrics (connection-level), and
``net_*`` entries folded into the session's next
:class:`~repro.robustness.health.HealthReport` via
:meth:`~repro.serve.session.ServeSession.note_repair`.

Reconnect-resume: the server keeps a per-session *attachment* (sequence
tracker + session handle) alive across connections.  A client re-HELLOing
an existing session name — presenting the resume token issued in the
first WELCOME and the same geometry — gets a WELCOME carrying
``resume_seq`` — the cumulative ack — and resends only what came after;
anything duplicated in flight is suppressed by seq, so no sample ever
reaches the estimator twice.

The update stream is reliable in the other direction too: every emitted
``MotionUpdate`` is assigned a monotonic update seq and retained until
the client's cumulative UACK covers it.  After a reconnect the server
rewinds its send cursor to the acked mark and retransmits everything
unacked; the client suppresses resent duplicates by seq.  An update
written to a connection that dies mid-flight is therefore redelivered,
not lost — which is what makes the "bit-identical to an uninterrupted
run" guarantee hold under forced disconnects.

Liveness: the server PINGs each connection every ``heartbeat_s`` (the
PING carries the current ack, doubling as an ack refresh) and closes
connections idle past ``idle_timeout_s``; the client's reconnect loop
handles the rest.

Thread model: the asyncio loop runs on a daemon thread so synchronous
code (CLI, tests, benchmarks) can drive the server with plain calls.
Transport state — decoder, sequence tracker, ack/update bookkeeping — is
touched only from the loop thread.  Estimator work runs on one thread per
live session (a single-thread executor, released at BYE), one call per
TCP read: push the read's samples, fold the transport repairs, then poll
— or flush at BYE.  That keeps the serve layer's single-producer contract
and the event loop free: a slow estimator block (notably
``backpressure="block"``, whose offer drains the whole queue
synchronously) stalls only its own session, never heartbeats, acks, or
other sessions' I/O.  Sessions do not share a pool: a session whose calls
move between threads spreads its buffers over glibc's per-thread malloc
arenas, which raised the ``wire_replay`` benchmark's peak RSS by 30-45%
on a 2-core host.
"""

from __future__ import annotations

import asyncio
import logging
import secrets
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.core.config import RimConfig
from repro.core.streaming import MotionUpdate
from repro.io import array_from_manifest
from repro.net import framing
from repro.net.framing import Frame, FrameDecoder, FrameError
from repro.obs.flight import FLIGHT
from repro.obs.provenance import SampleProvenance
from repro.serve.session import ServeConfig, ServeSession, SessionManager

logger = logging.getLogger(__name__)

DEFAULT_PORT = 7316  # "RIM" on a phone keypad, close enough


@dataclass
class NetServerConfig:
    """Transport-side knobs (estimator/serving knobs live elsewhere).

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; read back via ``server.port``).
        reorder_window: Out-of-order samples buffered per session before
            the gap is declared lost and skipped.
        ack_every: Send a cumulative ACK after this many delivered
            samples (heartbeat PINGs refresh the ack regardless).
        heartbeat_s: PING cadence per connection.
        idle_timeout_s: Close a connection after this long without a
            frame from the client.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    reorder_window: int = 64
    ack_every: int = 32
    heartbeat_s: float = 2.0
    idle_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        if self.ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        if self.heartbeat_s <= 0 or self.idle_timeout_s <= 0:
            raise ValueError("heartbeat/idle timeouts must be positive")


class SeqTracker:
    """Restore sequence order behind a bounded reorder window.

    Samples arrive tagged with a monotonic seq.  The tracker delivers
    them in seq order, holding early arrivals in a pending buffer of at
    most ``window`` samples; when the buffer overflows, the missing seqs
    are declared lost (``n_gap_samples``) and delivery advances to the
    earliest held sample.  Duplicates — retransmissions after reconnect
    or wire-level duplication — are dropped by seq.

    ``ack`` is the cumulative delivered high-water mark: every seq at or
    below it has been delivered or counted as a gap, so a resuming
    client replays strictly after it and nothing reaches the session
    twice.
    """

    def __init__(self, window: int = 64):
        self.window = int(window)
        self.next_seq = 0
        self.pending: Dict[int, Tuple[float, np.ndarray]] = {}
        self.n_delivered = 0
        self.n_duplicates = 0
        self.n_gap_samples = 0

    @property
    def ack(self) -> int:
        """Cumulative ack: highest seq accounted for (-1 before any)."""
        return self.next_seq - 1

    def admit(
        self, seq: int, timestamp: float, packet: np.ndarray
    ) -> List[Tuple[int, float, np.ndarray]]:
        """Accept one arrival; return samples now deliverable, in order."""
        if seq < self.next_seq or seq in self.pending:
            self.n_duplicates += 1
            return []
        self.pending[seq] = (timestamp, packet)
        out = self._release_in_order()
        if len(self.pending) > self.window:
            # The gap has outlived the window: skip to the earliest held
            # sample, counting every missing seq as lost.
            resume_at = min(self.pending)
            self.n_gap_samples += resume_at - self.next_seq
            self.next_seq = resume_at
            out.extend(self._release_in_order())
        return out

    def flush(self) -> List[Tuple[int, float, np.ndarray]]:
        """End of stream: deliver everything held, counting the gaps."""
        out = self._release_in_order()
        while self.pending:
            resume_at = min(self.pending)
            self.n_gap_samples += resume_at - self.next_seq
            self.next_seq = resume_at
            out.extend(self._release_in_order())
        return out

    def reset_pending(self) -> None:
        """Drop held out-of-order samples (client will resend past ack)."""
        self.pending.clear()

    def _release_in_order(self) -> List[Tuple[int, float, np.ndarray]]:
        out: List[Tuple[int, float, np.ndarray]] = []
        while self.next_seq in self.pending:
            timestamp, packet = self.pending.pop(self.next_seq)
            out.append((self.next_seq, timestamp, packet))
            self.next_seq += 1
            self.n_delivered += 1
        return out


@dataclass
class _Attachment:
    """Per-session server state that survives reconnects."""

    session_id: int
    name: str
    session: ServeSession
    tracker: SeqTracker
    sample_shape: Tuple[int, ...]
    array_manifest: Any  # HELLO geometry, revalidated on reattach
    token: str  # resume token a reattaching HELLO must present
    executor: ThreadPoolExecutor  # the session's estimator lane, shut at BYE
    acked_sent: int = -1  # last ack value actually framed to the client
    delivered_since_ack: int = 0
    crc_noted: int = 0  # decoder CRC drops already folded into repairs
    n_reconnects: int = 0
    finished: bool = False
    connected: bool = False
    conn_gen: int = 0  # bumped per attach; stale handlers check before clearing
    writer: Optional[asyncio.StreamWriter] = None
    repairs_noted: Dict[str, int] = field(default_factory=dict)
    # Update-stream reliability: every emitted update gets a monotonic
    # seq and stays buffered until the client's cumulative UACK covers
    # it; a reconnect rewinds update_sent to update_acked so anything
    # unacked is retransmitted on the new connection.
    update_seq: int = 0  # next update seq to assign
    update_sent: int = -1  # highest seq written to the live connection
    update_acked: int = -1  # highest seq the client confirmed (UACK)
    unacked_updates: Dict[int, bytes] = field(default_factory=dict)
    # Side-band provenance: create stamps from client TELEMETRY frames by
    # sample seq (consumed at ingest), and resolved latency breakdowns by
    # update seq (sent — and resent — alongside their UPDATE frames).
    pending_prov: Dict[int, float] = field(default_factory=dict)
    unacked_breakdowns: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def fold_repairs(self) -> None:
        """Sync tracker/decoder fault counters into session repairs.

        Runs in the session's lane (it mutates session state).
        """
        counts = {
            "net_duplicate_dropped": self.tracker.n_duplicates,
            "net_gap_samples": self.tracker.n_gap_samples,
            "net_crc_dropped": self.crc_noted,
        }
        for key, total in counts.items():
            fresh = total - self.repairs_noted.get(key, 0)
            if fresh > 0:
                self.session.note_repair(key, fresh)
                self.repairs_noted[key] = total

    def prune_updates(self) -> None:
        """Drop buffered updates the client has confirmed receiving."""
        for seq in [s for s in self.unacked_updates if s <= self.update_acked]:
            del self.unacked_updates[seq]
        for seq in [s for s in self.unacked_breakdowns if s <= self.update_acked]:
            del self.unacked_breakdowns[seq]


class NetServer:
    """The TCP ingestion front-end (see module docstring for protocol).

    Args:
        manager: Session registry fed by delivered samples.  The server
            creates sessions on HELLO using the geometry the client
            declares.
        config: Transport configuration.
        rim_config: Estimator config for sessions created over the wire.
        serve_config: Serving config (queue/backpressure) for the same.
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        config: Optional[NetServerConfig] = None,
        rim_config: Optional[RimConfig] = None,
        serve_config: Optional[ServeConfig] = None,
    ):
        self.manager = manager or SessionManager(
            rim_config=rim_config, serve_config=serve_config
        )
        self.config = config or NetServerConfig()
        self._rim_config = rim_config
        self._serve_config = serve_config
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._attachments: Dict[str, _Attachment] = {}
        # Live connection handlers and their heartbeats; shutdown cancels
        # and awaits them so none is left pending when the loop stops.
        self._tasks: Set[asyncio.Task] = set()
        self._next_session_id = 1
        self._started = threading.Event()
        self._closed = False
        self.port: Optional[int] = None
        self.n_connections = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "NetServer":
        """Bind and serve on a daemon thread; returns self when listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="rim-net-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("network server failed to start listening")
        # Refresh the retained-frame gauge at every registry snapshot, so
        # exporters see the live unacked-update backlog between pumps.
        obs.METRICS.add_collector(self._collect_metrics)
        return self

    def _collect_metrics(self) -> None:
        if not obs.enabled():
            return
        try:
            retained = sum(
                len(a.unacked_updates) for a in list(self._attachments.values())
            )
        except RuntimeError:  # raced a HELLO registering an attachment
            return
        obs.set_gauge("net.retained_frames", retained)

    def close(self, flush_sessions: bool = True) -> None:
        """Stop listening, drop connections, optionally flush sessions."""
        obs.METRICS.remove_collector(self._collect_metrics)
        if self._loop is None or self._closed:
            return
        self._closed = True
        loop = self._loop
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        future.result(timeout=10.0)
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        # With the loop stopped, drain each session's lane before touching
        # its estimator from this thread, then finish the sessions that
        # never said BYE as a BYE would.
        for att in self._attachments.values():
            att.executor.shutdown(wait=True)
            if flush_sessions and not att.finished:
                self._ingest(att, att.tracker.flush(), finish=True)

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.run_until_complete(self._bind())
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def _bind(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("net server listening on %s:%d", self.config.host, self.port)

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    def _track(self, task: asyncio.Task) -> None:
        """Hold ``task`` for :meth:`_shutdown` until it finishes."""
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- stats --------------------------------------------------------------

    def session_stats(self) -> List[Dict[str, object]]:
        """Serving rows extended with transport counters per session."""
        rows = []
        for row in self.manager.stats():
            att = self._attachments.get(str(row["session"]))
            if att is not None:
                row = dict(row)
                row["acked"] = att.tracker.ack
                row["net_dups"] = att.tracker.n_duplicates
                row["net_gaps"] = att.tracker.n_gap_samples
                row["net_crc"] = att.crc_noted
                row["reconnects"] = att.n_reconnects
            rows.append(row)
        return rows

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:  # start_server runs every handler as a task
            self._track(task)
        self.n_connections += 1
        obs.add("net.connections")
        decoder = FrameDecoder()
        att: Optional[_Attachment] = None
        my_gen = -1
        last_rx = asyncio.get_running_loop().time()
        heartbeat: Optional[asyncio.Task] = None
        try:
            while True:
                timeout = self.config.idle_timeout_s - (
                    asyncio.get_running_loop().time() - last_rx
                )
                if timeout <= 0:
                    logger.warning("connection idle past timeout; closing")
                    obs.add("net.idle_closed")
                    FLIGHT.record(
                        "connection", "net",
                        session=None if att is None else att.name,
                        action="idle_closed",
                    )
                    break
                try:
                    data = await asyncio.wait_for(
                        reader.read(1 << 16), timeout=timeout
                    )
                except asyncio.TimeoutError:
                    continue  # recheck idle budget
                if not data:
                    break  # peer closed
                last_rx = asyncio.get_running_loop().time()
                decoder.feed(data)
                # Tracker-released samples accumulate here and go to the
                # session's lane in one call per read.
                batch: List[Tuple[int, float, np.ndarray]] = []
                done = False
                for frame in decoder.frames():
                    obs.add("net.frames_rx")
                    if att is None:
                        att = self._handle_hello(frame, writer)
                        if att is None:
                            done = True
                            break
                        my_gen = att.conn_gen
                        heartbeat = asyncio.get_running_loop().create_task(
                            self._heartbeat(att, writer)
                        )
                        self._track(heartbeat)
                        continue
                    status = await self._handle_frame(
                        att, frame, writer, batch, decoder
                    )
                    if status:
                        done = True
                        break
                if att is not None and not done:
                    self._note_decoder_faults(att, decoder)
                    fresh = await self._run_lane(att, batch, finish=False)
                    self._pump_session(att, writer, fresh)
                await writer.drain()
                if done:
                    break
        except (ConnectionResetError, BrokenPipeError, FrameError) as exc:
            logger.warning("connection dropped: %s", exc)
            FLIGHT.record(
                "connection", "net",
                session=None if att is None else att.name,
                action="dropped", error=str(exc),
            )
        except asyncio.CancelledError:
            # Shutdown cancels open handlers.  A handler that ended
            # cancelled would make asyncio's client_connected_cb callback
            # log the cancellation as an unhandled exception.
            pass
        finally:
            if heartbeat is not None:
                heartbeat.cancel()
            if att is not None and att.conn_gen == my_gen:
                att.connected = False
                att.writer = None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    def _handle_hello(
        self, frame: Frame, writer: asyncio.StreamWriter
    ) -> Optional[_Attachment]:
        """First frame of a connection: open or reattach a session."""
        if frame.frame_type != framing.FRAME_HELLO:
            self._send_error(writer, f"expected HELLO, got {frame.type_name}")
            return None
        try:
            hello = framing.unpack_json_payload(frame.payload, where="HELLO")
            name = str(hello["name"])
            sample_shape = tuple(int(v) for v in hello["sample_shape"])
        except (FrameError, KeyError, TypeError, ValueError) as exc:
            self._send_error(writer, f"malformed HELLO: {exc}")
            return None

        att = self._attachments.get(name)
        if att is not None:
            if att.finished:
                self._send_error(writer, f"session {name!r} already finished")
                return None
            # A reattach must prove it is the same client before it can
            # supersede the live connection: the resume token issued in
            # the first WELCOME, and identical geometry (a mismatched
            # shape would have every DATA frame silently dropped by the
            # payload-length check).
            if hello.get("token") != att.token:
                self._send_error(
                    writer, f"bad resume token for session {name!r}"
                )
                return None
            if (
                sample_shape != att.sample_shape
                or hello.get("array") != att.array_manifest
            ):
                self._send_error(
                    writer,
                    f"HELLO geometry mismatch for session {name!r}: "
                    f"sample_shape {sample_shape} vs {att.sample_shape}",
                )
                return None
            if att.connected and att.writer is not None:
                # A reconnecting client usually beats our detection of
                # its dead socket: the newest HELLO wins, the stale
                # handler is kicked loose.
                logger.warning(
                    "session %s: superseding a stale connection", name,
                    extra={"session": name},
                )
                obs.add("net.superseded")
                FLIGHT.record(
                    "connection", "net", session=name, action="superseded"
                )
                try:
                    att.writer.close()
                except (OSError, RuntimeError):
                    pass
            # Reattach: held out-of-order samples are forgotten (the
            # client resends everything past the ack anyway), and the
            # update cursor rewinds so unacked updates are resent.
            att.tracker.reset_pending()
            att.update_sent = att.update_acked
            att.n_reconnects += 1
            obs.add("net.reconnects")
            FLIGHT.record(
                "reconnect", "net", session=name, resume_seq=att.tracker.ack
            )
            logger.info(
                "session %s reattached (resume after seq %d)", name, att.tracker.ack,
                extra={"session": name},
            )
        else:
            try:
                array = array_from_manifest(hello["array"])
                session = self.manager.create(
                    name,
                    array,
                    float(hello["sampling_rate"]),
                    rim_config=self._rim_config,
                    serve_config=self._serve_config,
                    carrier_wavelength=float(
                        hello.get("carrier_wavelength", 0.0516)
                    ),
                )
            except (KeyError, TypeError, ValueError) as exc:
                self._send_error(writer, f"bad HELLO for session {name!r}: {exc}")
                return None
            att = _Attachment(
                session_id=self._next_session_id,
                name=name,
                session=session,
                tracker=SeqTracker(self.config.reorder_window),
                sample_shape=sample_shape,
                array_manifest=hello.get("array"),
                token=secrets.token_hex(16),
                executor=ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"rim-net-ingest-{name}"
                ),
            )
            self._next_session_id += 1
            self._attachments[name] = att
            FLIGHT.record(
                "connection", "net", session=name, action="opened",
                session_id=att.session_id,
            )
            logger.info(
                "session %s opened (id %d)", name, att.session_id,
                extra={"session": name},
            )
        att.connected = True
        att.conn_gen += 1
        att.writer = writer
        writer.write(
            framing.pack_frame(
                framing.FRAME_WELCOME,
                att.session_id,
                0,
                framing.pack_json_payload(
                    {
                        "session_id": att.session_id,
                        "resume_seq": att.tracker.ack,
                        "token": att.token,
                    }
                ),
            )
        )
        return att

    async def _handle_frame(
        self,
        att: _Attachment,
        frame: Frame,
        writer: asyncio.StreamWriter,
        batch: List[Tuple[int, float, np.ndarray]],
        decoder: FrameDecoder,
    ) -> bool:
        """Dispatch one post-HELLO frame; True ends the connection.

        DATA frames only extend ``batch`` (sent to the session's lane once
        per read); everything else is handled in place.
        """
        if frame.frame_type == framing.FRAME_DATA:
            obs.add("net.data_rx")
            try:
                timestamp, packet = framing.unpack_data_payload(
                    frame.payload, att.sample_shape
                )
            except FrameError as exc:
                # Wrong-geometry payload: drop-and-continue, never crash.
                logger.warning("dropping undecodable DATA frame: %s", exc)
                att.crc_noted += 1
                obs.add("net.crc_dropped")
                return False
            batch.extend(att.tracker.admit(frame.seq, timestamp, packet))
            return False
        if frame.frame_type == framing.FRAME_TELEMETRY:
            # Side-band create stamp for an upcoming DATA sample.  Loss-
            # tolerant: a malformed stamp is dropped, a stale one (its
            # DATA frame was lost to faults) is pruned below the tracker
            # cursor, and a hard cap bounds the dict under pathological
            # loss so telemetry can never grow server memory.
            try:
                created_s = framing.unpack_sample_telemetry(frame.payload)
            except FrameError:
                return False
            att.pending_prov[frame.seq] = created_s
            cap = max(1024, 4 * self.config.reorder_window)
            if len(att.pending_prov) > cap:
                for seq in [
                    s for s in att.pending_prov if s < att.tracker.next_seq
                ]:
                    del att.pending_prov[seq]
                while len(att.pending_prov) > cap:
                    del att.pending_prov[min(att.pending_prov)]
            return False
        if frame.frame_type == framing.FRAME_UACK:
            att.update_acked = max(att.update_acked, frame.seq - 1)
            att.prune_updates()
            return False
        if frame.frame_type == framing.FRAME_PONG:
            return False
        if frame.frame_type == framing.FRAME_BYE:
            self._note_decoder_faults(att, decoder)
            fresh = await self._run_lane(
                att, batch + att.tracker.flush(), finish=True
            )
            self._pump_session(att, writer, fresh, force_ack=True)
            writer.write(framing.pack_frame(framing.FRAME_BYE, att.session_id))
            # The BYE rides behind the final updates on the same stream,
            # and a finished session cannot be reattached: the unacked
            # buffer has done its job.
            att.unacked_updates.clear()
            att.unacked_breakdowns.clear()
            att.pending_prov.clear()
            return True
        if frame.frame_type == framing.FRAME_HELLO:
            self._send_error(writer, "duplicate HELLO on open session")
            return True
        logger.warning("ignoring unexpected %s frame", frame.type_name)
        return False

    # -- estimator lane (the session's own thread) --------------------------

    async def _run_lane(
        self,
        att: _Attachment,
        batch: List[Tuple[int, float, np.ndarray]],
        finish: bool,
    ) -> List[MotionUpdate]:
        """:meth:`_ingest` on the session's executor; a finish releases
        the executor's thread."""
        if att.finished:  # a stale connection's read after the BYE
            return []
        fresh = await asyncio.get_running_loop().run_in_executor(
            att.executor, self._ingest, att, batch, finish
        )
        att.delivered_since_ack += len(batch)
        if finish:
            att.executor.shutdown(wait=False)
        return fresh

    def _ingest(
        self,
        att: _Attachment,
        batch: List[Tuple[int, float, np.ndarray]],
        finish: bool,
    ) -> List[MotionUpdate]:
        """Push ``batch``, fold the transport repairs, then poll — or
        flush and mark the session finished when ``finish`` is set.

        Runs on the session's executor thread, or on the closing thread
        once that executor is drained.
        """
        if att.finished:  # a stale connection's read queued behind the BYE
            return []
        for seq, timestamp, packet in batch:
            self.manager.push(
                att.name,
                packet,
                timestamp,
                provenance=self._sample_provenance(att, seq),
            )
        # Folded before the poll or flush, so the block they emit carries
        # the net_* repairs.
        att.fold_repairs()
        if not finish:
            return att.session.poll()
        att.finished = True
        return att.session.flush()

    def _sample_provenance(
        self, att: _Attachment, seq: int
    ) -> Optional[SampleProvenance]:
        """Trace context for one delivered sample (None when tracing is off).

        Uses the client's wire create stamp when its TELEMETRY frame made
        it through; otherwise mints a context at this ingest boundary so
        fault-lossy wire paths still yield full breakdowns (wire_s = 0).
        """
        created_s = att.pending_prov.pop(seq, None)
        if not obs.enabled():
            return None
        return SampleProvenance(f"{att.name}:{seq}", created_s=created_s)

    # -- frame emission ------------------------------------------------------

    def _note_decoder_faults(
        self, att: _Attachment, decoder: FrameDecoder
    ) -> None:
        """Attribute this connection's decode faults to its session."""
        fresh_crc = decoder.n_crc_dropped - getattr(decoder, "_crc_seen", 0)
        fresh_resync = decoder.n_resyncs - getattr(decoder, "_resync_seen", 0)
        if fresh_crc:
            att.crc_noted += fresh_crc
            obs.add("net.crc_dropped", fresh_crc)
        if fresh_resync:
            obs.add("net.resyncs", fresh_resync)
        decoder._crc_seen = decoder.n_crc_dropped  # type: ignore[attr-defined]
        decoder._resync_seen = decoder.n_resyncs  # type: ignore[attr-defined]

    def _pump_session(
        self,
        att: _Attachment,
        writer: asyncio.StreamWriter,
        fresh: List[MotionUpdate],
        force_ack: bool = False,
    ) -> None:
        """Queue fresh updates, stream unsent ones, and (maybe) ACK.

        Fresh updates are sequenced into the unacked buffer whether or
        not they can be written right now.  Writes go only to the
        session's *live* connection: a stale handler (superseded by a
        reconnect mid-await) still queues, but leaves transmission to
        the current connection, so nothing is marked sent on a dead
        socket.
        """
        for update in fresh:
            att.unacked_updates[att.update_seq] = framing.encode_update(update)
            # UPDATE payloads exclude stats by design (golden-bytes lock),
            # so the latency breakdown rides a side-band TELEMETRY frame
            # kept — and resent — alongside its update.
            if update.stats and isinstance(
                update.stats.get("provenance"), dict
            ):
                att.unacked_breakdowns[att.update_seq] = update.stats[
                    "provenance"
                ]
            att.update_seq += 1
        if att.writer is not writer or writer.is_closing():
            return
        while att.update_sent + 1 < att.update_seq:
            seq = att.update_sent + 1
            att.update_sent = seq
            payload = att.unacked_updates.get(seq)
            if payload is None:
                continue  # UACKed while unsent (ack outran a rewind)
            obs.add("net.updates_tx")
            writer.write(
                framing.pack_frame(
                    framing.FRAME_UPDATE, att.session_id, seq, payload
                )
            )
            breakdown = att.unacked_breakdowns.get(seq)
            if breakdown is not None:
                writer.write(
                    framing.pack_update_telemetry(
                        att.session_id, seq, breakdown
                    )
                )
        if force_ack or att.delivered_since_ack >= self.config.ack_every:
            self._send_ack(att, writer)

    def _send_ack(self, att: _Attachment, writer: asyncio.StreamWriter) -> None:
        ack = att.tracker.ack
        # seq field carries ack+1 so ack=-1 (nothing yet) fits unsigned.
        writer.write(
            framing.pack_frame(framing.FRAME_ACK, att.session_id, ack + 1)
        )
        att.acked_sent = ack
        att.delivered_since_ack = 0
        obs.add("net.acks_tx")

    def _send_error(self, writer: asyncio.StreamWriter, message: str) -> None:
        logger.warning("protocol error: %s", message)
        obs.add("net.protocol_errors")
        FLIGHT.record("protocol_error", "net", error=message)
        FLIGHT.auto_dump("protocol-error")
        writer.write(
            framing.pack_frame(
                framing.FRAME_ERROR,
                0,
                0,
                framing.pack_json_payload({"error": message}),
            )
        )

    async def _heartbeat(
        self, att: _Attachment, writer: asyncio.StreamWriter
    ) -> None:
        """PING (carrying the ack) every heartbeat_s while connected."""
        try:
            while att.connected and not writer.is_closing():
                await asyncio.sleep(self.config.heartbeat_s)
                if writer.is_closing():
                    return
                writer.write(
                    framing.pack_frame(
                        framing.FRAME_PING, att.session_id, att.tracker.ack + 1
                    )
                )
                att.acked_sent = att.tracker.ack
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            return
