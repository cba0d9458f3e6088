"""Named streaming sessions behind bounded ingest queues.

A :class:`ServeSession` wraps one :class:`~repro.core.streaming.StreamingRim`
with the pieces a serving layer needs and the estimator itself must not
know about:

* a **bounded ingest queue** — producers can run ahead of the estimator
  by at most ``queue_capacity`` packets;
* an explicit **backpressure policy** for a full queue:

  - ``"block"``: the producer pays — the offer call drains the queue
    through the estimator before admitting the packet (time spent is
    recorded as block latency);
  - ``"drop_oldest"``: the oldest queued packet is shed to make room
    (bounded staleness, unbounded producers);
  - ``"reject"``: the incoming packet is refused and the producer told
    so (explicit upstream backpressure);

* **TTL idle tracking** so :class:`SessionManager` can evict sessions
  whose receiver went away.

Shed / reject / blocked counts are folded into the ``repairs`` dict of
the next emitted :class:`~repro.robustness.health.HealthReport`, so a
dashboard watching session health sees load shedding next to guard
repairs.  When :mod:`repro.obs` is enabled, each session additionally
publishes queue-depth gauges, shed counters, and block-latency
histograms tagged by session id.

Thread model: different sessions are fully independent; one session must
be driven by one producer thread at a time (single-producer).  The
manager's own bookkeeping is lock-protected.
"""

from __future__ import annotations

import logging
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.arrays.geometry import AntennaArray
from repro.core.config import RimConfig
from repro.core.streaming import MotionUpdate, StreamingRim
from repro.obs.flight import FLIGHT
from repro.obs.provenance import SampleProvenance
from repro.store.writer import TraceWriter

logger = logging.getLogger(__name__)

BACKPRESSURE_POLICIES = ("block", "drop_oldest", "reject")

# Offer outcomes (returned by ServeSession.offer / SessionManager.push).
PUSH_ACCEPTED = "accepted"
PUSH_BLOCKED = "blocked"  # accepted after draining a full queue
PUSH_SHED_OLDEST = "shed_oldest"  # accepted; the oldest queued packet shed
PUSH_REJECTED = "rejected"  # refused; producer must back off


@dataclass
class ServeConfig:
    """Serving-side knobs of one session (estimator knobs live in RimConfig).

    Attributes:
        queue_capacity: Maximum packets a producer may queue ahead of the
            estimator before the backpressure policy engages.
        backpressure: Full-queue policy: ``"block"``, ``"drop_oldest"``,
            or ``"reject"``.
        ttl_seconds: Idle time after which :meth:`SessionManager.evict_idle`
            flushes and removes the session.
        block_seconds: Streaming emission cadence (passed to
            :class:`~repro.core.streaming.StreamingRim`).
    """

    queue_capacity: int = 256
    backpressure: str = "block"
    ttl_seconds: float = 300.0
    block_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if self.block_seconds <= 0:
            raise ValueError("block_seconds must be positive")


def _tagged(name: str, session: str) -> str:
    """Metric name carrying a session label, e.g. ``serve.depth{session=a}``."""
    return f"{name}{{session={session}}}"


class ServeSession:
    """One named receiver stream: bounded queue + StreamingRim + telemetry.

    Args:
        name: Session id (unique within a manager).
        array: Receive antenna array of this receiver.
        sampling_rate: CSI packet rate, Hz.
        rim_config: Estimator configuration.
        serve_config: Queue / backpressure / TTL configuration.
        carrier_wavelength: Carrier wavelength (CsiTrace metadata).
        clock: Monotonic time source (injectable for TTL tests).
        recorder: Optional :class:`~repro.store.writer.TraceWriter` —
            record-on-ingest: every offered packet is appended to the
            store *before* backpressure or guarding touches it, so the
            recording is the ground truth of what the receiver sent
            (replaying it reproduces the ingest, including the packets a
            loaded server shed).  Closed by :meth:`flush`.
    """

    def __init__(
        self,
        name: str,
        array: AntennaArray,
        sampling_rate: float,
        rim_config: Optional[RimConfig] = None,
        serve_config: Optional[ServeConfig] = None,
        carrier_wavelength: float = 0.0516,
        clock: Callable[[], float] = time.monotonic,
        recorder: Optional[TraceWriter] = None,
    ):
        self.name = name
        self.serve_config = serve_config or ServeConfig()
        self.stream = StreamingRim(
            array,
            sampling_rate,
            rim_config,
            block_seconds=self.serve_config.block_seconds,
            carrier_wavelength=carrier_wavelength,
        )
        self.recorder = recorder
        self._clock = clock
        self.created_at = clock()
        self.last_activity = self.created_at
        self._queue: Deque[
            Tuple[np.ndarray, Optional[float], Optional[SampleProvenance]]
        ] = deque()
        self._degrade_dumped = False
        self._updates: List[MotionUpdate] = []
        # Serving-side repairs folded into the next health report.
        self._pending_repairs: Dict[str, int] = {}
        self.n_offered = 0
        self.n_processed = 0
        self.n_shed = 0
        self.n_rejected = 0
        self.n_blocked = 0
        self.n_updates = 0
        self.degraded_blocks = 0
        self.block_wait_s = 0.0

    # -- queue state --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Packets queued ahead of the estimator right now."""
        return len(self._queue)

    def idle_seconds(self, now: Optional[float] = None) -> float:
        """Seconds since the last offer/poll touched this session."""
        return (self._clock() if now is None else now) - self.last_activity

    @property
    def total_distance(self) -> float:
        return self.stream.total_distance

    # -- ingest -------------------------------------------------------------

    def offer(
        self,
        packet: np.ndarray,
        timestamp: Optional[float] = None,
        provenance: Optional[SampleProvenance] = None,
    ) -> str:
        """Enqueue one packet, honoring the backpressure policy.

        Returns one of :data:`PUSH_ACCEPTED`, :data:`PUSH_BLOCKED`
        (admitted after a blocking drain), :data:`PUSH_SHED_OLDEST`
        (admitted, oldest queued packet shed), or :data:`PUSH_REJECTED`
        (refused — the producer must retry later or drop).

        While :mod:`repro.obs` is enabled every admitted packet carries a
        provenance context: the caller's (stamped ``ingest`` here), or a
        fresh one minted at this boundary (``wire_s`` = 0) so in-process
        producers and fault-lossy wire paths still yield a full latency
        breakdown on every update.
        """
        self.last_activity = self._clock()
        self.n_offered += 1
        obs.add(_tagged("serve.offered", self.name))
        if obs.enabled():
            if provenance is None:
                provenance = SampleProvenance(f"{self.name}:{self.n_offered - 1}")
            provenance.stamp_ingest()
        else:
            provenance = None
        if self.recorder is not None:
            self.recorder.append(np.asarray(packet), timestamp)
        status = PUSH_ACCEPTED
        if len(self._queue) >= self.serve_config.queue_capacity:
            policy = self.serve_config.backpressure
            if policy == "reject":
                self.n_rejected += 1
                self._tally("queue_rejected")
                obs.add(_tagged("serve.rejected", self.name))
                FLIGHT.record(
                    "backpressure", "serve", session=self.name, action="reject"
                )
                self._record_depth()
                return PUSH_REJECTED
            if policy == "drop_oldest":
                self._queue.popleft()
                self.n_shed += 1
                self._tally("queue_shed_oldest")
                obs.add(_tagged("serve.shed_oldest", self.name))
                FLIGHT.record(
                    "backpressure", "serve", session=self.name, action="shed_oldest"
                )
                status = PUSH_SHED_OLDEST
            else:  # block: consume the backlog before admitting more
                t0 = time.perf_counter()
                self.drain()
                waited = time.perf_counter() - t0
                self.n_blocked += 1
                self.block_wait_s += waited
                self._tally("queue_blocked")
                obs.observe(
                    _tagged("serve.block_wait_s", self.name),
                    waited,
                    bounds=obs.LATENCY_BOUNDS_S,
                )
                status = PUSH_BLOCKED
        self._queue.append((packet, timestamp, provenance))
        self._record_depth()
        return status

    def drain(self, max_packets: Optional[int] = None) -> List[MotionUpdate]:
        """Feed queued packets to the estimator; return any new updates."""
        n = len(self._queue) if max_packets is None else min(max_packets, len(self._queue))
        new: List[MotionUpdate] = []
        for _ in range(n):
            packet, timestamp, provenance = self._queue.popleft()
            if provenance is not None:
                provenance.stamp_dequeue()
            update = self.stream.push(packet, timestamp, provenance=provenance)
            self.n_processed += 1
            if update is not None:
                self._absorb(update)
                new.append(update)
        self._record_depth()
        return new

    def poll(self) -> List[MotionUpdate]:
        """Drain the queue and hand back every update since the last poll."""
        self.last_activity = self._clock()
        self.drain()
        return self._hand_over()

    def flush(self) -> List[MotionUpdate]:
        """End of stream: drain, flush the estimator, return all updates.

        Also finalizes the ingest recording (if any): the store's
        manifest is marked closed and its tail chunk drained.
        """
        self.drain()
        final = self.stream.flush()
        if final is not None:
            self._absorb(final)
        if self.recorder is not None:
            self.recorder.close()
        return self._hand_over()

    def adopt(
        self,
        stream: StreamingRim,
        n_ingested: int,
        updates: Optional[List[MotionUpdate]] = None,
        skip_updates: int = 0,
    ) -> int:
        """Transplant a replayed stream into this session (shard failover).

        The shard fleet resumes a dead worker's session by replaying its
        ingest recording through a fresh
        :class:`~repro.store.checkpoint.CheckpointedReplayer` and handing
        the replayed stream — plus the updates the replay regenerated —
        to a brand-new session on a surviving worker.  The first
        ``skip_updates`` regenerated updates were already delivered to
        the previous owner's consumers and are discarded; the rest are
        queued for the next :meth:`poll` so nothing is lost or repeated.

        Args:
            stream: The replayed estimator (mid-stream, not flushed).
            n_ingested: Packets the recording replayed (becomes the
                honest ``offered``/``processed`` baseline).
            updates: Every update the replay regenerated, in order.
            skip_updates: How many of ``updates`` were already delivered.

        Returns:
            The number of updates queued for delivery.
        """
        updates = list(updates or [])
        if not 0 <= skip_updates <= len(updates):
            raise ValueError(
                f"skip_updates {skip_updates} out of range for "
                f"{len(updates)} replayed updates"
            )
        self.stream = stream
        self.n_offered = int(n_ingested)
        self.n_processed = int(n_ingested)
        self.n_updates = len(updates)
        self._updates = updates[skip_updates:]
        self.last_activity = self._clock()
        return len(self._updates)

    def note_repair(self, key: str, n: int = 1) -> None:
        """Record an ingest-side repair (e.g. ``net_*`` transport faults).

        Counts fold into the ``repairs`` dict of the next emitted
        :class:`~repro.robustness.health.HealthReport`, exactly like the
        session's own backpressure tallies.
        """
        if n:
            self._tally(key, n)

    def stats(self) -> Dict[str, object]:
        """A flat serving-health snapshot (one table row per session)."""
        return {
            "session": self.name,
            "offered": self.n_offered,
            "processed": self.n_processed,
            "queued": self.queue_depth,
            "blocked": self.n_blocked,
            "shed": self.n_shed,
            "rejected": self.n_rejected,
            "updates": self.n_updates,
            "degraded_blocks": self.degraded_blocks,
            "distance_m": self.stream.total_distance,
            "block_wait_s": self.block_wait_s,
        }

    # -- internals ----------------------------------------------------------

    def _hand_over(self) -> List[MotionUpdate]:
        """The updates since the last hand-over, carrying every repair
        noted before it.

        A repair noted after the newest of them was emitted rides on it:
        a shard worker emits blocks between requests, so a repair the
        producer noted before polling can arrive after its block.
        """
        out, self._updates = self._updates, []
        if out:
            self._fold_repairs(out[-1])
        return out

    def _fold_repairs(self, update: MotionUpdate) -> None:
        if update.health is None or not self._pending_repairs:
            return
        merged = dict(update.health.repairs)
        for key, value in self._pending_repairs.items():
            merged[key] = merged.get(key, 0) + value
        update.health.repairs = merged
        self._pending_repairs = {}

    def _tally(self, key: str, n: int = 1) -> None:
        self._pending_repairs[key] = self._pending_repairs.get(key, 0) + n
        obs.add(_tagged("serve.repairs", self.name), n)

    def _record_depth(self) -> None:
        obs.set_gauge(_tagged("serve.queue_depth", self.name), len(self._queue))

    def _absorb(self, update: MotionUpdate) -> None:
        """Fold serving-side telemetry into an estimator update."""
        self.n_updates += 1
        self._fold_repairs(update)
        if update.health is not None and update.health.degraded:
            self.degraded_blocks += 1
            FLIGHT.record(
                "guard_escalation",
                "serve",
                session=self.name,
                degraded_blocks=self.degraded_blocks,
                repairs=dict(update.health.repairs),
            )
            if not self._degrade_dumped:
                # One artifact per session: the first escalation is the
                # interesting one, a flapping guard must not spray dump
                # files.
                self._degrade_dumped = True
                FLIGHT.auto_dump(f"guard-escalation-{self.name}")
        if update.stats is not None:
            obs.observe(
                _tagged("serve.block_latency_s", self.name),
                update.stats["block_latency_s"],
                bounds=obs.LATENCY_BOUNDS_S,
            )
        self._updates.append(update)


class SessionManager:
    """Registry of named sessions: create / push / poll / evict.

    Eviction is cooperative: :meth:`evict_idle` runs on every
    :meth:`create` and may be called from a housekeeping loop; per-packet
    pushes never scan the registry.

    Args:
        rim_config: Default estimator config for new sessions.
        serve_config: Default serving config for new sessions.
        clock: Monotonic time source shared with sessions (injectable).
        record_dir: When set, every new session records its ingest into
            a chunked store at ``record_dir/<session-name>`` (see
            :class:`~repro.store.writer.TraceWriter`); replay later with
            ``python -m repro.cli replay`` or ``serve-sim --store-dir``.
        record_chunk_samples: Packets per recorded chunk file.  The
            shard fleet uses a small value so a killed worker loses at
            most one short chunk of un-synced tail.
    """

    def __init__(
        self,
        rim_config: Optional[RimConfig] = None,
        serve_config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        record_dir=None,
        record_chunk_samples: Optional[int] = None,
    ):
        self._rim_config = rim_config
        self._serve_config = serve_config or ServeConfig()
        self._clock = clock
        self.record_dir = None if record_dir is None else Path(record_dir)
        self.record_chunk_samples = record_chunk_samples
        self._sessions: Dict[str, ServeSession] = {}
        self._lock = threading.Lock()
        self.n_evicted = 0
        # Refresh queue-depth/session-count gauges at every registry
        # snapshot, so exporters see live values between pushes.  The
        # weakref collector unregisters itself once the manager is gone.
        ref = weakref.ref(self)

        def _collect() -> bool:
            manager = ref()
            if manager is None:
                return False
            manager._refresh_gauges()
            return True

        obs.METRICS.add_collector(_collect)

    def _refresh_gauges(self) -> None:
        if not obs.enabled():
            return
        with self._lock:
            sessions = list(self._sessions.values())
        obs.set_gauge("serve.sessions", len(sessions))
        for session in sessions:
            obs.set_gauge(
                _tagged("serve.queue_depth", session.name), session.queue_depth
            )

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def create(
        self,
        name: str,
        array: AntennaArray,
        sampling_rate: float,
        rim_config: Optional[RimConfig] = None,
        serve_config: Optional[ServeConfig] = None,
        carrier_wavelength: float = 0.0516,
    ) -> ServeSession:
        """Register a new session; evicts expired ones first.

        With a manager-level ``record_dir``, the session's ingest is
        recorded to ``record_dir/<name>``.
        """
        self.evict_idle()
        recorder = None
        if self.record_dir is not None:
            kwargs = {}
            if self.record_chunk_samples is not None:
                kwargs["chunk_samples"] = self.record_chunk_samples
            recorder = TraceWriter(
                self.record_dir / name,
                array,
                carrier_wavelength=carrier_wavelength,
                sampling_rate=sampling_rate,
                **kwargs,
            )
        session = ServeSession(
            name,
            array,
            sampling_rate,
            rim_config=rim_config or self._rim_config,
            serve_config=serve_config or self._serve_config,
            carrier_wavelength=carrier_wavelength,
            clock=self._clock,
            recorder=recorder,
        )
        return self.register(session)

    def register(self, session: ServeSession) -> ServeSession:
        """Install an externally built session (shard failover adoption).

        :meth:`create` builds and registers in one step; the shard
        worker instead rebuilds a session from a dead peer's recording
        (:meth:`ServeSession.adopt`) and registers the finished object.
        """
        with self._lock:
            if session.name in self._sessions:
                raise ValueError(f"session {session.name!r} already exists")
            self._sessions[session.name] = session
        obs.set_gauge("serve.sessions", len(self))
        FLIGHT.record("session", "serve", session=session.name, action="created")
        logger.info("session %s created", session.name, extra={"session": session.name})
        return session

    def get(self, name: str) -> ServeSession:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise KeyError(f"unknown session {name!r}") from None

    def push(
        self,
        name: str,
        packet: np.ndarray,
        timestamp: Optional[float] = None,
        provenance: Optional[SampleProvenance] = None,
    ) -> str:
        """Offer one packet to a session; returns the offer status.

        ``provenance`` carries a wire-side trace context (minted at
        ``NetClient.send``); without one, the session mints its own at
        the ingest boundary while :mod:`repro.obs` is enabled.
        """
        status = self.get(name).offer(packet, timestamp, provenance=provenance)
        obs.add("serve.pushes")
        return status

    def poll(self, name: str) -> List[MotionUpdate]:
        """Drain a session and return its updates since the last poll."""
        return self.get(name).poll()

    def evict(self, name: str) -> List[MotionUpdate]:
        """Flush and remove one session; returns its final updates."""
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is None:
            raise KeyError(f"unknown session {name!r}")
        updates = session.flush()
        self.n_evicted += 1
        obs.add("serve.evictions")
        obs.set_gauge("serve.sessions", len(self))
        FLIGHT.record(
            "session", "serve", session=name, action="evicted",
            final_updates=len(updates),
        )
        logger.info(
            "session %s evicted (%d final updates)", name, len(updates),
            extra={"session": name},
        )
        return updates

    def evict_idle(self, now: Optional[float] = None) -> Dict[str, List[MotionUpdate]]:
        """Evict every session idle longer than its TTL.

        Returns:
            Final updates of each evicted session, keyed by name.
        """
        now = self._clock() if now is None else now
        with self._lock:
            expired = [
                name
                for name, s in self._sessions.items()
                if s.idle_seconds(now) > s.serve_config.ttl_seconds
            ]
        evicted: Dict[str, List[MotionUpdate]] = {}
        for name in expired:
            try:
                evicted[name] = self.evict(name)
            except KeyError:  # raced with an explicit evict
                pass
        return evicted

    def flush_all(self) -> Dict[str, List[MotionUpdate]]:
        """Flush every session in place (end of stream, no eviction)."""
        with self._lock:
            sessions = list(self._sessions.values())
        return {s.name: s.flush() for s in sessions}

    def stats(self) -> List[Dict[str, object]]:
        """Per-session serving-health rows, sorted by session name."""
        with self._lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.name)
        return [s.stats() for s in sessions]
