"""Shard router: N worker processes behind one SessionManager-shaped API.

:class:`ShardRouter` spawns ``n_shards`` worker processes (each running
:func:`repro.shard.worker.shard_worker_main` around a private
:class:`~repro.serve.session.SessionManager`), assigns sessions to
shards by consistent hash of the session name
(:class:`~repro.shard.ring.HashRing`), and ships CSI packets and control
requests over per-shard pipes as pickled records (the kinds and bodies
are listed in :mod:`repro.shard.worker`).

The router mirrors the ``SessionManager`` surface (``create`` / ``push``
/ ``poll`` / ``flush_all`` / ``stats`` / ``names``), so
:class:`repro.net.server.NetServer` and the serve simulator drive a
fleet exactly like a single in-process manager; ``create`` returns a
:class:`ShardSessionProxy` that forwards the per-session methods a
caller holds onto.

**Failover.**  When a shard dies (detected on any pipe error, an
explicit :meth:`check_shards`, or a test's :meth:`kill_shard`), its
sessions are re-assigned among the survivors by the same ring and
resumed from their ingest recordings: the adopting worker replays the
victim's store through a
:class:`~repro.store.checkpoint.CheckpointedReplayer` and continues the
stream bit-identically.  The router tracks how many updates each
session already delivered, so replay-regenerated updates are neither
lost nor repeated.  Durability is anchored at :meth:`sync` barriers
(workers drain recorder tails to disk); packets offered after the last
sync that were still in a dead worker's memory are the only loss, and
they are bounded by the short shard chunk size.

**Telemetry.**  Each worker keeps its own :mod:`repro.obs` registry;
the router registers a snapshot collector that pulls per-shard
SNAPSHOT deltas and folds them into the router-process registry
(:meth:`~repro.obs.metrics.MetricsRegistry.apply_snapshot`), so the
PR-7 exporters (JSONL, Prometheus exposition, ``obs-top``) see
``serve.*`` / ``net.*`` metrics for the whole fleet.

Thread model: any number of producer threads may drive *different*
sessions concurrently (per-shard pipe sends are serialized by a lock);
one session must be driven by one producer at a time, exactly like
``SessionManager``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.arrays.geometry import AntennaArray
from repro.core.config import RimConfig
from repro.core.streaming import MotionUpdate
from repro.obs.flight import FLIGHT
from repro.obs.provenance import SampleProvenance
from repro.serve.session import PUSH_ACCEPTED, ServeConfig
from repro.shard.ring import HashRing
from repro.shard.worker import (
    ADOPT,
    CREATE,
    DATA,
    EVICT,
    FLUSH,
    NOTE,
    PING,
    POLL,
    SHUTDOWN,
    SNAPSHOT,
    STATS,
    SYNC,
    WorkerInit,
    pack,
    shard_worker_main,
)

logger = logging.getLogger(__name__)

_PIPE_ERRORS = (BrokenPipeError, ConnectionResetError, EOFError, OSError)

#: Round-trip budget of a control request (a flush can run a whole block).
REQUEST_TIMEOUT_S = 120.0
#: How long :meth:`ShardRouter.wait_ready` waits for a worker's imports.
READY_TIMEOUT_S = 60.0
#: How long :meth:`ShardRouter.close` waits for each worker to exit.
SHUTDOWN_TIMEOUT_S = 30.0


class ShardError(RuntimeError):
    """A fleet-level failure (no survivors, protocol breach, timeout)."""


class _ShardDown(Exception):
    """Internal: a pipe operation found its shard dead."""

    def __init__(self, shard: "_Shard", cause: BaseException):
        super().__init__(f"{shard.name} is down: {cause}")
        self.shard = shard
        self.cause = cause


def default_start_method() -> str:
    """Worker start method: ``RIM_SHARD_START`` env override, else fork
    where available (fast startup; workers reset inherited obs state) and
    spawn elsewhere."""
    env = os.environ.get("RIM_SHARD_START", "").strip().lower()
    methods = multiprocessing.get_all_start_methods()
    if env:
        if env not in methods:
            raise ShardError(
                f"RIM_SHARD_START={env!r} not available (have {methods})"
            )
        return env
    return "fork" if "fork" in methods else "spawn"


@dataclass
class _Shard:
    """Router-side handle of one worker process."""

    name: str
    process: Any
    conn: Any
    lock: threading.Lock = field(default_factory=threading.Lock)
    alive: bool = True
    seq: int = 0
    last_snapshot: Optional[Dict[str, Any]] = None


@dataclass
class _SessionRecord:
    """What the router must remember to route, poll, and fail over."""

    name: str
    owner: str
    spec: Tuple[AntennaArray, float, float]  # the CREATE body
    delivered: int = 0  # updates handed to the consumer so far
    generation: int = 0  # failover count == recording generations - 1
    flushed: bool = False


class ShardSessionProxy:
    """Session-shaped handle to a session living on some shard.

    Forwards :meth:`offer` / :meth:`poll` / :meth:`flush` /
    :meth:`note_repair` / :meth:`stats` over the owning shard's pipe;
    survives failover transparently (the router re-resolves the owner on
    every call).  ``offer`` returns :data:`~repro.serve.session.
    PUSH_ACCEPTED` optimistically — the worker applies the real
    backpressure policy on its side of the pipe, and blocked/shed/
    rejected tallies surface through :meth:`stats` and health reports;
    the OS pipe itself throttles a producer that runs far ahead.
    """

    def __init__(self, router: "ShardRouter", name: str):
        self._router = router
        self.name = name

    def offer(
        self,
        packet: np.ndarray,
        timestamp: Optional[float] = None,
        provenance: Optional[SampleProvenance] = None,
    ) -> str:
        return self._router.push(self.name, packet, timestamp, provenance=provenance)

    def poll(self) -> List[MotionUpdate]:
        return self._router.poll(self.name)

    def flush(self) -> List[MotionUpdate]:
        return self._router.flush(self.name)

    def note_repair(self, key: str, n: int = 1) -> None:
        self._router.note_repair(self.name, key, n)

    def stats(self) -> Dict[str, object]:
        for row in self._router.stats():
            if row.get("session") == self.name:
                return row
        raise KeyError(f"unknown session {self.name!r}")


class ShardRouter:
    """Spawn and drive a fleet of shard workers (see module docstring).

    Args:
        n_shards: Worker process count.
        rim_config: Estimator config shared by every session.
        serve_config: Serving config shared by every session.
        record_dir: Shared ingest-recording root.  Required for
            failover resume; None disables recording (a dead shard's
            sessions are then unrecoverable and failover raises).

    Workers start with the method :func:`default_start_method` picks,
    and collect :mod:`repro.obs` metrics (aggregated here) when obs is
    enabled in this process at construction time.
    """

    def __init__(
        self,
        n_shards: int,
        rim_config: Optional[RimConfig] = None,
        serve_config: Optional[ServeConfig] = None,
        record_dir=None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.rim_config = rim_config
        self.serve_config = serve_config or ServeConfig()
        self.record_dir = None if record_dir is None else Path(record_dir)
        self.start_method = default_start_method()
        self.enable_worker_obs = obs.enabled()
        self.n_failovers = 0
        self._closed = False
        self._lock = threading.RLock()  # topology: shards, ring, sessions
        self._sessions: Dict[str, _SessionRecord] = {}
        self._ring = HashRing([])
        self._shards: Dict[str, _Shard] = {}

        ctx = multiprocessing.get_context(self.start_method)
        for k in range(self.n_shards):
            name = f"shard-{k}"
            init = WorkerInit(
                shard_name=name,
                record_dir=None if self.record_dir is None else str(self.record_dir),
                rim_config=rim_config,
                serve_config=self.serve_config,
                enable_obs=self.enable_worker_obs,
                log_level=logging.getLogger("repro").getEffectiveLevel(),
            )
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, init),
                name=f"rim-{name}",
                daemon=True,
            )
            process.start()
            child_conn.close()  # parent keeps one end; EOF then means death
            self._shards[name] = _Shard(name=name, process=process, conn=parent_conn)
            self._ring.add(name)

        obs.set_gauge("shard.shards_alive", self.n_shards)
        # Aggregate worker metrics into this process's registry at every
        # snapshot; the weakref collector detaches once the router is
        # closed or collected.
        ref = weakref.ref(self)

        def _collect() -> bool:
            router = ref()
            if router is None or router._closed:
                return False
            router.refresh_metrics()
            return True

        obs.METRICS.add_collector(_collect)
        logger.info(
            "shard fleet up: %d workers (%s start)", self.n_shards, self.start_method
        )

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wait_ready(self) -> None:
        """Block until every worker answers a PING (imports finished).

        Call before a timed window so worker startup (interpreter spawn,
        numpy import) is excluded from throughput measurements.

        Raises:
            ShardError: A worker died before answering, or did not answer
                within :data:`READY_TIMEOUT_S`.
        """
        for shard in self._alive():
            try:
                self._request(shard, PING, timeout=READY_TIMEOUT_S)
            except _ShardDown as down:
                raise ShardError(f"fleet never came up: {down}") from down

    def close(self) -> None:
        """Flush every session, stop every worker, release the pipes."""
        if self._closed:
            return
        try:
            self.flush_all()
        except ShardError:
            logger.warning("flush during close failed; shutting down anyway")
        # The workers' registries end with them: fold in their last
        # deltas, so a snapshot taken after close still counts the flush.
        self.refresh_metrics()
        for shard in self._alive():
            try:
                self._request(shard, SHUTDOWN, timeout=SHUTDOWN_TIMEOUT_S)
            except (_ShardDown, ShardError):
                pass
        self._closed = True
        for shard in self._shards.values():
            shard.process.join(timeout=SHUTDOWN_TIMEOUT_S)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.alive = False
        obs.set_gauge("shard.shards_alive", 0)
        logger.info("shard fleet down")

    # -- SessionManager surface ---------------------------------------------

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def shard_of(self, name: str) -> str:
        """The shard currently owning ``name`` (for tests and tables)."""
        with self._lock:
            return self._sessions[name].owner

    def create(
        self,
        name: str,
        array: AntennaArray,
        sampling_rate: float,
        rim_config: Optional[RimConfig] = None,
        serve_config: Optional[ServeConfig] = None,
        carrier_wavelength: float = 0.0516,
    ) -> ShardSessionProxy:
        """Register a session on its ring-assigned shard.

        Per-session config overrides must match the fleet-wide configs
        the workers were spawned with (configuration is per-fleet, not
        per-session, in sharded mode).
        """
        if rim_config is not None and rim_config != self.rim_config:
            raise ShardError(
                "per-session rim_config differs from the fleet's; "
                "configure the ShardRouter instead"
            )
        if serve_config is not None and serve_config != self.serve_config:
            raise ShardError(
                "per-session serve_config differs from the fleet's; "
                "configure the ShardRouter instead"
            )
        record = _SessionRecord(
            name=name,
            owner="",
            spec=(array, float(sampling_rate), float(carrier_wavelength)),
        )
        with self._lock:
            if name in self._sessions:
                raise ValueError(f"session {name!r} already exists")
            self._sessions[name] = record
        try:
            self._per_session(
                name, lambda shard: self._request(shard, CREATE, name, record.spec)
            )
        except Exception:
            with self._lock:
                self._sessions.pop(name, None)
            raise
        obs.add("shard.sessions_created")
        return ShardSessionProxy(self, name)

    def get(self, name: str) -> ShardSessionProxy:
        with self._lock:
            if name not in self._sessions:
                raise KeyError(f"unknown session {name!r}")
        return ShardSessionProxy(self, name)

    def push(
        self,
        name: str,
        packet: np.ndarray,
        timestamp: Optional[float] = None,
        provenance: Optional[SampleProvenance] = None,
    ) -> str:
        """Ship one packet and its trace context to the owning shard
        (fire-and-forget).

        The worker applies backpressure on its side; the return value is
        always :data:`PUSH_ACCEPTED` (see :class:`ShardSessionProxy`).
        """
        raw = pack(DATA, name, 0, (packet, timestamp, provenance))
        self._per_session(name, lambda shard: self._send(shard, raw))
        obs.add("serve.pushes")
        return PUSH_ACCEPTED

    def poll(self, name: str) -> List[MotionUpdate]:
        """Drain a session on its shard; return updates since last poll."""
        updates = self._per_session(
            name, lambda shard: self._request(shard, POLL, name)
        )
        return self._deliver(name, updates)

    def flush(self, name: str) -> List[MotionUpdate]:
        """End-of-stream flush of one session (closes its recording)."""
        updates = self._per_session(
            name, lambda shard: self._request(shard, FLUSH, name)
        )
        with self._lock:
            record = self._sessions.get(name)
            if record is not None:
                record.flushed = True
        return self._deliver(name, updates)

    def evict(self, name: str) -> List[MotionUpdate]:
        """Flush and remove one session fleet-wide."""
        updates = self._per_session(
            name, lambda shard: self._request(shard, EVICT, name)
        )
        self._deliver(name, updates)
        with self._lock:
            self._sessions.pop(name, None)
        return updates

    def note_repair(self, name: str, key: str, n: int = 1) -> None:
        """Forward an ingest-side repair tally (e.g. ``net_*`` faults)."""
        raw = pack(NOTE, name, 0, (key, int(n)))
        self._per_session(name, lambda shard: self._send(shard, raw))

    def flush_all(self) -> Dict[str, List[MotionUpdate]]:
        """Flush every session in place; returns final updates by name."""
        out: Dict[str, List[MotionUpdate]] = {}
        with self._lock:
            names = [r.name for r in self._sessions.values() if not r.flushed]
        for name in sorted(names):
            out[name] = self.flush(name)
        return out

    def stats(self) -> List[Dict[str, object]]:
        """Per-session serving-health rows across every shard.

        Rows match :meth:`SessionManager.stats` plus a ``shard`` column.
        """
        rows: List[Dict[str, object]] = []
        for shard in self._alive():
            try:
                shard_rows = self._request(shard, STATS)
            except _ShardDown as down:
                self._on_shard_death(down.shard)
                continue
            for row in shard_rows:
                row["shard"] = shard.name
                rows.append(row)
        rows.sort(key=lambda row: str(row.get("session", "")))
        return rows

    # -- fleet operations ---------------------------------------------------

    def sync(self) -> int:
        """Durability barrier: drain every recorder tail to disk.

        Returns the number of sessions synced.  After this returns, a
        ``SIGKILL`` of any worker loses no packet offered before the
        call — the anchor of the failover bit-identity guarantee.
        """
        synced = 0
        for shard in self._alive():
            try:
                synced += self._request(shard, SYNC)
            except _ShardDown as down:
                self._on_shard_death(down.shard)
        return synced

    def check_shards(self) -> List[str]:
        """Detect dead workers and fail their sessions over; returns the
        names of shards found dead on this sweep."""
        dead: List[str] = []
        for shard in self._alive():
            if not shard.process.is_alive():
                dead.append(shard.name)
                self._on_shard_death(shard)
        return dead

    def kill_shard(self, index: int, failover: bool = True) -> str:
        """SIGKILL one worker (fault injection for tests and soaks).

        With ``failover=True`` the victim's sessions are immediately
        resumed on the survivors; otherwise the death is left for the
        next pipe error or :meth:`check_shards` sweep to discover.
        """
        name = f"shard-{index}"
        with self._lock:
            shard = self._shards[name]
        if shard.process.pid is None:
            raise ShardError(f"{name} was never started")
        os.kill(shard.process.pid, signal.SIGKILL)
        shard.process.join(timeout=10.0)
        FLIGHT.record("shard_kill", "shard", shard=name)
        logger.warning("%s killed (fault injection)", name)
        if failover:
            self._on_shard_death(shard)
        return name

    def alive_shards(self) -> List[str]:
        """Names of shards currently believed alive."""
        return [shard.name for shard in self._alive()]

    def fleet_stats(self) -> Dict[str, Any]:
        """Fleet-level summary: shard liveness, placement, failovers."""
        with self._lock:
            placement: Dict[str, int] = {name: 0 for name in self._shards}
            for record in self._sessions.values():
                placement[record.owner] = placement.get(record.owner, 0) + 1
            return {
                "n_shards": self.n_shards,
                "alive": [s.name for s in self._shards.values() if s.alive],
                "n_sessions": len(self._sessions),
                "sessions_per_shard": placement,
                "failovers": self.n_failovers,
                "start_method": self.start_method,
            }

    def refresh_metrics(self) -> None:
        """Fold each worker's metric deltas into this process's registry.

        Runs as an :class:`~repro.obs.metrics.MetricsRegistry` collector
        before every snapshot; a shard whose pipe is busy is skipped
        this round rather than blocking the exporter.
        """
        if not self.enable_worker_obs:
            return
        for shard in self._alive():
            if not shard.lock.acquire(timeout=0.2):
                continue
            try:
                snapshot = self._roundtrip_locked(
                    shard, SNAPSHOT, "", None, REQUEST_TIMEOUT_S
                )
            except _ShardDown:
                continue  # the next data-path touch handles the failover
            finally:
                shard.lock.release()
            obs.METRICS.apply_snapshot(snapshot, previous=shard.last_snapshot)
            shard.last_snapshot = snapshot

    # -- internals ----------------------------------------------------------

    def _alive(self) -> List[_Shard]:
        with self._lock:
            return [shard for shard in self._shards.values() if shard.alive]

    def _owner(self, name: str) -> _Shard:
        with self._lock:
            record = self._sessions.get(name)
            if record is None:
                raise KeyError(f"unknown session {name!r}")
            if not record.owner:
                record.owner = self._assign_shard(name)
            return self._shards[record.owner]

    def _assign_shard(self, name: str) -> str:
        """Bounded-load consistent placement (call with the lock held).

        Walks the ring's preference order for ``name`` and takes the
        first live shard with spare capacity — ``ceil((n+1)/alive)``
        sessions — so small fleets stay balanced (plain consistent
        hashing can easily put every one of 4 sessions on the same of 2
        shards) while a session's placement stays a pure function of the
        ring membership and the sessions placed before it.
        """
        counts: Dict[str, int] = {
            shard.name: 0 for shard in self._shards.values() if shard.alive
        }
        if not counts:
            raise ShardError("no live shards to place a session on")
        for record in self._sessions.values():
            if record.owner in counts and not record.flushed:
                counts[record.owner] += 1
        total = sum(counts.values())
        capacity = max(1, -(-(total + 1) // len(counts)))
        for node in self._ring.preference(name):
            if counts.get(node, capacity) < capacity:
                return node
        return self._ring.assign(name)

    def _per_session(self, name: str, op: Callable[[_Shard], Any]) -> Any:
        """Run ``op`` against the session's owner, failing over on death."""
        for _ in range(self.n_shards + 1):
            shard = self._owner(name)
            try:
                return op(shard)
            except _ShardDown as down:
                self._on_shard_death(down.shard)
        raise ShardError(f"no shard could serve session {name!r}")

    def _send(self, shard: _Shard, raw: bytes) -> None:
        with shard.lock:
            if not shard.alive:
                raise _ShardDown(shard, RuntimeError("already marked dead"))
            try:
                shard.conn.send_bytes(raw)
            except _PIPE_ERRORS as exc:
                raise _ShardDown(shard, exc) from exc

    def _request(
        self,
        shard: _Shard,
        kind: str,
        name: str = "",
        body: Any = None,
        timeout: float = REQUEST_TIMEOUT_S,
    ) -> Any:
        with shard.lock:
            if not shard.alive:
                raise _ShardDown(shard, RuntimeError("already marked dead"))
            return self._roundtrip_locked(shard, kind, name, body, timeout)

    def _roundtrip_locked(
        self, shard: _Shard, kind: str, name: str, body: Any, timeout: float
    ) -> Any:
        shard.seq += 1
        seq = shard.seq
        try:
            shard.conn.send_bytes(pack(kind, name, seq, body))
            if not shard.conn.poll(timeout):
                if not shard.process.is_alive():
                    raise _ShardDown(
                        shard, RuntimeError("worker process exited")
                    )
                raise ShardError(
                    f"{shard.name}: no reply to {kind.upper()} "
                    f"within {timeout:.0f}s"
                )
            raw = shard.conn.recv_bytes()
        except _PIPE_ERRORS as exc:
            raise _ShardDown(shard, exc) from exc
        reply_seq, error, result = pickle.loads(raw)
        if reply_seq != seq:
            raise ShardError(
                f"{shard.name}: reply seq {reply_seq} != request seq {seq} "
                "(pipe protocol violation)"
            )
        if error is not None:
            error_kind, message = error
            if error_kind == "KeyError":
                raise KeyError(message)
            if error_kind == "ValueError":
                raise ValueError(message)
            raise ShardError(f"{shard.name}: {error_kind}: {message}")
        return result

    def _deliver(self, name: str, updates: List[MotionUpdate]) -> List[MotionUpdate]:
        if updates:
            with self._lock:
                record = self._sessions.get(name)
                if record is not None:
                    record.delivered += len(updates)
        return updates

    def _on_shard_death(self, shard: _Shard) -> None:
        """Mark a shard dead and resume its sessions on the survivors."""
        with self._lock:
            if not shard.alive:
                return
            shard.alive = False
            self.n_failovers += 1
            if shard.name in self._ring:
                self._ring.remove(shard.name)
            try:
                shard.conn.close()
            except OSError:
                pass
            victims = [
                record
                for record in self._sessions.values()
                if record.owner == shard.name and not record.flushed
            ]
            survivors = [s for s in self._shards.values() if s.alive]
            obs.set_gauge("shard.shards_alive", len(survivors))
            obs.add("shard.failovers")
            FLIGHT.record(
                "shard_death", "shard", shard=shard.name,
                sessions=[record.name for record in victims],
            )
            FLIGHT.auto_dump(f"shard-death-{shard.name}")
            if not survivors:
                raise ShardError(
                    f"{shard.name} died and no shards survive; fleet lost"
                )
            if victims and self.record_dir is None:
                raise ShardError(
                    f"{shard.name} died holding {len(victims)} sessions but the "
                    "fleet has no record_dir; sessions are unrecoverable"
                )
            logger.warning(
                "%s died; resuming %d sessions on %d survivors",
                shard.name, len(victims), len(survivors),
            )
            for record in victims:
                self._adopt(record)

    def _adopt(self, record: _SessionRecord) -> None:
        """Resume one victim session on a ring-chosen survivor."""
        record.generation += 1
        body = (record.spec, record.generation, record.delivered)
        while True:
            target_name = self._assign_shard(record.name)
            target = self._shards[target_name]
            try:
                self._request(target, ADOPT, record.name, body)
            except _ShardDown as down:
                self._on_shard_death(down.shard)
                continue
            record.owner = target_name
            obs.add("shard.sessions_adopted")
            logger.info(
                "session %s resumed on %s (gen %d)",
                record.name, target_name, record.generation,
            )
            return


def fleet_sync_loop(
    router: ShardRouter,
    interval_s: float,
    should_stop: Callable[[], bool],
) -> threading.Thread:
    """Start a housekeeping thread: periodic :meth:`ShardRouter.sync` +
    :meth:`ShardRouter.check_shards` until ``should_stop()``.

    Long-running fronts (``net-serve --shards``) use this so the
    durability barrier advances and dead workers are noticed even when
    no request traffic touches them.
    """

    def _loop() -> None:
        while not should_stop():
            time.sleep(interval_s)
            if should_stop():
                return
            try:
                router.check_shards()
                router.sync()
            except ShardError:
                logger.exception("fleet housekeeping failed")
                return

    thread = threading.Thread(target=_loop, name="rim-fleet-sync", daemon=True)
    thread.start()
    return thread
