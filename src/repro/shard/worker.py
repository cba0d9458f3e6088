"""Shard worker: one process, one :class:`~repro.serve.session.SessionManager`.

:func:`shard_worker_main` is the module-level entry point the router
spawns (picklable, so the ``spawn`` start method works).  It owns a
private ``SessionManager`` — and therefore private estimator state, a
private GIL, and a private :mod:`repro.obs` registry — and services one
request at a time off its pipe in FIFO order, so a round-trip's reply is
always the next record the router reads.

Each pipe record is one pickled tuple sent with
``Connection.send_bytes``: ``(kind, name, seq, body)`` from the router
and ``(seq, error, result)`` back.  Bodies and results are the objects
an in-process ``SessionManager`` call takes or returns (the table beside
:class:`_ShardWorker`'s handler map), so updates cross whole, latency
breakdowns and health reports included.  A record that does not unpickle
ends the worker as a kill would: the router finds the pipe closed and
resumes the worker's sessions on the survivors.

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
import pickle
import signal
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core.config import RimConfig
from repro.core.streaming import MotionUpdate
from repro.serve.session import ServeConfig, ServeSession, SessionManager
from repro.store.checkpoint import CheckpointedReplayer
from repro.store.reader import TraceReader
from repro.store.writer import TraceWriter

logger = logging.getLogger(__name__)

# Short chunks bound what a SIGKILL can lose between syncs to < 1 s of
# tail at typical CSI rates, at a small file-count cost.
SHARD_CHUNK_SAMPLES = 64

# Request kinds (the first field of a router record).
PING, CREATE, DATA, NOTE, POLL, FLUSH, EVICT = (
    "ping", "create", "data", "note", "poll", "flush", "evict",
)
STATS, SNAPSHOT, SYNC, ADOPT, SHUTDOWN = (
    "stats", "snapshot", "sync", "adopt", "shutdown",
)
# Never answered, so a push costs no round trip.
FIRE_AND_FORGET = frozenset({DATA, NOTE})
# Requests that drain a session: they report a failure of its idle ingest.
_DRAINING = frozenset({POLL, FLUSH, EVICT})


def pack(*fields: Any) -> bytes:
    """One pipe record: the pickled tuple of ``fields``."""
    return pickle.dumps(fields, protocol=pickle.HIGHEST_PROTOCOL)


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
        # kind      body                                    result
        # PING      None                                    None
        # CREATE    (array, sampling_rate, wavelength)      None
        # DATA      (packet, timestamp, provenance)         (no reply)
        # NOTE      (repair key, count)                     (no reply)
        # POLL      None                                    [MotionUpdate]
        # FLUSH     None                                    [MotionUpdate]
        # EVICT     None                                    [MotionUpdate]
        # STATS     None                                    stats rows
        # SNAPSHOT  None                                    registry snapshot
        # SYNC      None                                    sessions synced
        # ADOPT     (CREATE body, generation, delivered)    None
        # SHUTDOWN  None                                    None
        self._handlers: Dict[str, Callable[[str, Any], Any]] = {
            PING: lambda name, body: None,
            CREATE: self._create,
            DATA: self._data,
            NOTE: lambda name, body: self.manager.get(name).note_repair(*body),
            POLL: lambda name, body: self.manager.poll(name),
            FLUSH: self._flush,
            EVICT: self._evict,
            STATS: lambda name, body: self.manager.stats(),
            SNAPSHOT: lambda name, body: obs.METRICS.snapshot(),
            SYNC: lambda name, body: self._sync_all(),
            ADOPT: self._adopt,
            SHUTDOWN: self._shutdown,
        }

    # -- loop ---------------------------------------------------------------

    def serve_forever(self) -> None:
        while True:
            if self._backlog and not self.conn.poll():
                self._ingest_idle()
                continue
            try:
                kind, name, seq, body = pickle.loads(self.conn.recv_bytes())
            except Exception as exc:
                # The router is gone, or sent a record that does not
                # unpickle: nothing after it can be trusted.  Make the
                # recordings durable so the sessions resume elsewhere.
                if not isinstance(exc, (EOFError, OSError)):
                    logger.error(
                        "%s: unreadable record, exiting: %s",
                        self.init.shard_name, exc,
                    )
                self._sync_all()
                break
            error: Optional[Tuple[str, str]] = None
            result: Any = None
            try:
                if kind in _DRAINING and name in self._ingest_errors:
                    raise self._ingest_errors.pop(name)
                result = self._handlers[kind](name, body)
            except Exception as exc:  # reply, never die mid-protocol
                logger.exception(
                    "%s: %s %r failed", self.init.shard_name, kind, name
                )
                error = (type(exc).__name__, str(exc))
            if kind not in FIRE_AND_FORGET:
                self.conn.send_bytes(pack(seq, error, result))
            if kind == SHUTDOWN:
                break
        self.conn.close()

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

    def _create(self, name: str, body) -> None:
        array, sampling_rate, carrier_wavelength = body
        self.manager.create(
            name, array, sampling_rate, carrier_wavelength=carrier_wavelength
        )
        self._flushed[name] = False

    def _data(self, name: str, body) -> None:
        self.manager.push(name, *body)
        if name not in self._backlogged:
            self._backlogged.add(name)
            self._backlog.append(name)

    def _flush(self, name: str, body) -> List[MotionUpdate]:
        updates = self.manager.get(name).flush()
        self._flushed[name] = True
        return updates

    def _evict(self, name: str, body) -> List[MotionUpdate]:
        updates = self.manager.evict(name)
        self._flushed.pop(name, None)
        return updates

    def _shutdown(self, name: str, body) -> None:
        for session_name in self.manager.names():
            if not self._flushed.get(session_name, False):
                try:
                    self.manager.get(session_name).flush()
                except Exception:
                    logger.exception(
                        "%s: flush of %s failed at shutdown",
                        self.init.shard_name, session_name,
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

    def _adopt(self, name: str, body) -> None:
        spec, generation, skip_updates = body
        assert self.init.record_dir is not None, "adoption needs recordings"
        root = Path(self.init.record_dir)
        stores = [root / name] + [root / f"{name}@g{g}" for g in range(1, generation)]
        live = [p for p in stores if (p / "manifest.json").exists()]
        if not live:
            # The victim died before recording anything durable; start the
            # session from scratch (nothing to lose: no packet survived).
            self._create(name, spec)
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

            recorder = TraceWriter(
                root / f"{name}@g{generation}",
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
