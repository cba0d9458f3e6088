"""Shard worker: one process, one :class:`~repro.serve.session.SessionManager`.

:func:`shard_worker_main` is the module-level entry point the router
spawns (picklable, so the ``spawn`` start method works).  It owns a
private ``SessionManager`` — and therefore private estimator state, a
private GIL, and a private :mod:`repro.obs` registry — and services one
request at a time off its pipe in FIFO order, so a round-trip's reply is
always the next record the router reads.

Between requests the worker ingests: whenever the pipe holds no request,
it feeds the oldest backlogged session's queued packets to its
estimator.  A POLL then mostly collects a block already computed, and
the ingest queue and its backpressure policy act only while the worker
is busy.

Two request families matter beyond plain session plumbing:

* **SYNC** drains every session recorder's in-memory tail to disk as a
  short chunk (``TraceWriter.flush(partial=True)``), establishing the
  durability barrier the failover bit-identity guarantee is anchored to:
  after a sync, even ``SIGKILL`` loses nothing that was offered before it.
* **ADOPT** resumes a dead shard's session from its ingest recording:
  replay the store (and any prior failover generations) through a
  :class:`~repro.store.checkpoint.CheckpointedReplayer` with the tail
  *unflushed*, transplant the replayed stream into a fresh session
  (:meth:`~repro.serve.session.ServeSession.adopt`), and keep recording
  into a new generation directory so a second failover can repeat the
  trick.
"""

from __future__ import annotations

import logging
import signal
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Set

from repro import obs
from repro.core.config import RimConfig
from repro.core.streaming import MotionUpdate
from repro.io import array_from_manifest
from repro.serve.session import ServeConfig, ServeSession, SessionManager
from repro.shard import messages as msg
from repro.store.checkpoint import CheckpointedReplayer
from repro.store.reader import TraceReader
from repro.store.writer import TraceWriter

logger = logging.getLogger(__name__)

# Short chunks bound what a SIGKILL can lose between syncs to < 1 s of
# tail at typical CSI rates, at a small file-count cost.
SHARD_CHUNK_SAMPLES = 64

# Requests that drain a session: they report a failure of its idle ingest.
_DRAINING = (msg.MSG_POLL, msg.MSG_FLUSH, msg.MSG_EVICT)


@dataclass
class WorkerInit:
    """Everything a spawned worker needs (picklable, crosses exec).

    Attributes:
        shard_name: This worker's id (``shard-K``), used in logs/metrics.
        record_dir: Shared ingest-recording root (all shards write
            distinct per-session subdirectories of the same root, so any
            survivor can replay any victim's recording).  None disables
            recording — and with it, failover resume.
        rim_config: Default estimator config for this shard's sessions.
        serve_config: Default serving config for this shard's sessions.
        enable_obs: Start the worker with :mod:`repro.obs` collection on
            (the router then aggregates SNAPSHOT deltas).
        log_level: Root ``repro`` logger level for the worker process.
    """

    shard_name: str
    record_dir: Optional[str] = None
    rim_config: Optional[RimConfig] = None
    serve_config: ServeConfig = field(default_factory=ServeConfig)
    enable_obs: bool = False
    log_level: int = logging.WARNING


def shard_worker_main(conn, init: WorkerInit) -> None:
    """Worker process entry point: serve shard requests until SHUTDOWN."""
    logging.getLogger("repro").setLevel(init.log_level)
    if threading.current_thread() is threading.main_thread():
        # The router coordinates shutdown; a terminal Ctrl-C must not
        # kill workers before the router drains and flushes them.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A forked worker inherits the parent's metric values; start from a
    # clean registry so SNAPSHOT deltas count only this shard's work.
    obs.reset()
    if init.enable_obs:
        obs.enable()
    else:
        obs.disable()
    worker = _ShardWorker(conn, init)
    worker.serve_forever()


class _ShardWorker:
    """The in-process half of one shard: manager + message loop."""

    def __init__(self, conn, init: WorkerInit):
        self.conn = conn
        self.init = init
        self.manager = SessionManager(
            rim_config=init.rim_config,
            serve_config=init.serve_config,
            record_dir=init.record_dir,
            record_chunk_samples=SHARD_CHUNK_SAMPLES,
        )
        self._flushed: Dict[str, bool] = {}
        # Sessions holding queued packets, oldest first, each listed once.
        self._backlog: Deque[str] = deque()
        self._backlogged: Set[str] = set()
        # Idle ingest has no request to answer: a failure waits for the
        # session's next draining request, which a drain there would fail.
        self._ingest_errors: Dict[str, Exception] = {}

    # -- loop ---------------------------------------------------------------

    def serve_forever(self) -> None:
        while True:
            if self._backlog and not self.conn.poll():
                self._ingest_idle()
                continue
            try:
                raw = self.conn.recv_bytes()
            except (EOFError, OSError):
                # Router gone: nothing to reply to; make recordings
                # durable so a new router can still adopt our sessions.
                self._sync_all()
                break
            try:
                request = msg.unpack_message(raw, where=self.init.shard_name)
            except msg.ShardProtocolError as exc:
                logger.error("%s: dropping bad record: %s", self.init.shard_name, exc)
                continue
            if request.msg_type == msg.MSG_SHUTDOWN:
                self._handle_shutdown(request)
                break
            try:
                self._dispatch(request)
            except Exception as exc:  # reply, never die mid-protocol
                logger.exception(
                    "%s: %s %r failed", self.init.shard_name,
                    msg.msg_name(request.msg_type), request.name,
                )
                if not msg.is_fire_and_forget(request.msg_type):
                    self._reply(
                        msg.MSG_ERROR, request,
                        msg.pack_json(
                            {"error": str(exc), "kind": type(exc).__name__}
                        ),
                    )
        self.conn.close()

    def _reply(self, msg_type: int, request: msg.ShardMessage, payload: bytes) -> None:
        self.conn.send_bytes(
            msg.pack_message(msg_type, request.name, request.seq, payload)
        )

    def _ok(self, request: msg.ShardMessage, obj: Dict[str, Any]) -> None:
        self._reply(msg.MSG_OK, request, msg.pack_json(obj))

    def _dispatch(self, request: msg.ShardMessage) -> None:
        handler = {
            msg.MSG_PING: self._handle_ping,
            msg.MSG_CREATE: self._handle_create,
            msg.MSG_DATA: self._handle_data,
            msg.MSG_POLL: self._handle_poll,
            msg.MSG_FLUSH: self._handle_flush,
            msg.MSG_STATS: self._handle_stats,
            msg.MSG_SNAPSHOT: self._handle_snapshot,
            msg.MSG_SYNC: self._handle_sync,
            msg.MSG_ADOPT: self._handle_adopt,
            msg.MSG_NOTE: self._handle_note,
            msg.MSG_EVICT: self._handle_evict,
        }.get(request.msg_type)
        if handler is None:
            raise msg.ShardProtocolError(
                f"unexpected request {msg.msg_name(request.msg_type)}"
            )
        if request.msg_type in _DRAINING and request.name in self._ingest_errors:
            raise self._ingest_errors.pop(request.name)
        handler(request)

    def _ingest_idle(self) -> None:
        """Feed the oldest backlogged session's queue to its estimator."""
        name = self._backlog.popleft()
        self._backlogged.discard(name)
        try:
            session = self.manager.get(name)
        except KeyError:  # evicted since its packets arrived
            return
        try:
            session.drain()
        except Exception as exc:
            logger.exception("%s: ingest of %r failed", self.init.shard_name, name)
            self._ingest_errors.setdefault(name, exc)

    # -- handlers -----------------------------------------------------------

    def _handle_ping(self, request: msg.ShardMessage) -> None:
        self._ok(
            request,
            {"shard": self.init.shard_name, "sessions": len(self.manager)},
        )

    def _handle_create(self, request: msg.ShardMessage) -> None:
        spec = request.json()
        self.manager.create(
            request.name,
            array_from_manifest(spec["array"]),
            float(spec["sampling_rate"]),
            carrier_wavelength=float(spec.get("carrier_wavelength", 0.0516)),
        )
        self._flushed[request.name] = False
        self._ok(request, {"shard": self.init.shard_name})

    def _handle_data(self, request: msg.ShardMessage) -> None:
        timestamp, packet = msg.unpack_data(request.payload)
        self.manager.push(request.name, packet, timestamp)
        if request.name not in self._backlogged:
            self._backlogged.add(request.name)
            self._backlog.append(request.name)

    def _handle_poll(self, request: msg.ShardMessage) -> None:
        updates = self.manager.poll(request.name)
        self._reply(msg.MSG_UPDATES, request, msg.pack_updates(updates))

    def _handle_flush(self, request: msg.ShardMessage) -> None:
        updates = self.manager.get(request.name).flush()
        self._flushed[request.name] = True
        self._reply(msg.MSG_UPDATES, request, msg.pack_updates(updates))

    def _handle_evict(self, request: msg.ShardMessage) -> None:
        updates = self.manager.evict(request.name)
        self._flushed.pop(request.name, None)
        self._reply(msg.MSG_UPDATES, request, msg.pack_updates(updates))

    def _handle_note(self, request: msg.ShardMessage) -> None:
        note = request.json()
        self.manager.get(request.name).note_repair(
            str(note["key"]), int(note.get("n", 1))
        )

    def _handle_stats(self, request: msg.ShardMessage) -> None:
        self._ok(
            request,
            {"shard": self.init.shard_name, "rows": self.manager.stats()},
        )

    def _handle_snapshot(self, request: msg.ShardMessage) -> None:
        self._ok(
            request,
            {"shard": self.init.shard_name, "metrics": obs.METRICS.snapshot()},
        )

    def _handle_sync(self, request: msg.ShardMessage) -> None:
        self._ok(request, {"synced": self._sync_all()})

    def _handle_shutdown(self, request: msg.ShardMessage) -> None:
        for name in self.manager.names():
            if not self._flushed.get(name, False):
                try:
                    self.manager.get(name).flush()
                except Exception:
                    logger.exception(
                        "%s: flush of %s failed at shutdown",
                        self.init.shard_name, name,
                    )
        self._ok(
            request,
            {"shard": self.init.shard_name, "rows": self.manager.stats()},
        )

    def _sync_all(self) -> int:
        synced = 0
        for name in self.manager.names():
            try:
                session = self.manager.get(name)
            except KeyError:
                continue
            if session.recorder is not None and not self._flushed.get(name, False):
                session.drain()  # record-on-ingest already ran; drain estimator
                session.recorder.flush(partial=True)
                synced += 1
        return synced

    # -- failover adoption --------------------------------------------------

    def _handle_adopt(self, request: msg.ShardMessage) -> None:
        spec = request.json()
        name = request.name
        stores = [Path(p) for p in spec["stores"]]
        skip_updates = int(spec.get("skip_updates", 0))
        generation = int(spec.get("generation", 1))
        live = [p for p in stores if (p / "manifest.json").exists()]
        if not live:
            # The victim died before recording anything durable; start the
            # session from scratch (nothing to lose: no packet survived).
            self.manager.create(
                name,
                array_from_manifest(spec["array"]),
                float(spec["sampling_rate"]),
                carrier_wavelength=float(spec.get("carrier_wavelength", 0.0516)),
            )
            self._flushed[name] = False
            self._ok(
                request,
                {"shard": self.init.shard_name, "n_ingested": 0,
                 "n_replayed_updates": 0, "n_queued": 0},
            )
            return

        reader = TraceReader(live[0], policy="repair")
        try:
            replayer = CheckpointedReplayer(
                reader,
                config=self.init.rim_config,
                block_seconds=self.init.serve_config.block_seconds,
            )
            # flush=False: the session keeps streaming after adoption; a
            # flush here would emit the tail block early and diverge
            # from an uninterrupted run.
            updates = replayer.run(flush=False)
            n_ingested = reader.n_samples
            last_time = replayer.state_dict()["last_time"]
            repairs: Dict[str, int] = {}
            updates, n_more, last_time = self._replay_generations(
                live[1:], replayer, updates, last_time, repairs
            )
            n_ingested += n_more

            recorder = None
            if self.init.record_dir is not None:
                recorder = TraceWriter(
                    Path(self.init.record_dir) / f"{name}@g{generation}",
                    reader.array,
                    carrier_wavelength=reader.carrier_wavelength,
                    chunk_samples=SHARD_CHUNK_SAMPLES,
                    sampling_rate=reader.sampling_rate,
                )
            session = ServeSession(
                name,
                reader.array,
                reader.sampling_rate,
                rim_config=self.init.rim_config,
                serve_config=self.init.serve_config,
                carrier_wavelength=reader.carrier_wavelength,
                recorder=recorder,
            )
            n_queued = session.adopt(
                replayer.stream, n_ingested, updates, skip_updates
            )
            for key, value in repairs.items():
                session.note_repair(key, value)
            self.manager.register(session)
            self._flushed[name] = False
        finally:
            reader.close()
        logger.info(
            "%s adopted session %s: %d packets replayed, %d updates "
            "regenerated, %d queued (skip %d)",
            self.init.shard_name, name, n_ingested,
            len(updates), n_queued, skip_updates,
        )
        self._ok(
            request,
            {"shard": self.init.shard_name, "n_ingested": n_ingested,
             "n_replayed_updates": len(updates), "n_queued": n_queued},
        )

    def _replay_generations(
        self,
        stores: List[Path],
        replayer: CheckpointedReplayer,
        updates: List[MotionUpdate],
        last_time: Optional[float],
        repairs: Dict[str, int],
    ):
        """Continue the replayed stream through later failover generations."""
        updates = list(updates)
        n_extra = 0
        for root in stores:
            reader = TraceReader(root, policy="repair")
            try:
                for key, value in reader.report.repairs().items():
                    repairs[key] = repairs.get(key, 0) + value
                for record in reader.iter_chunks(last_time=last_time):
                    for key, value in record.repairs.items():
                        repairs[key] = repairs.get(key, 0) + value
                    for k in range(record.times.size):
                        update = replayer.stream.push(
                            record.data[k], float(record.times[k])
                        )
                        if update is not None:
                            updates.append(update)
                    if record.times.size:
                        last_time = float(record.times[-1])
                    n_extra += record.times.size
            finally:
                reader.close()
        return updates, n_extra, last_time
