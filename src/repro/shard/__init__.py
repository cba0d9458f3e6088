"""Multi-process scale-out: a shard fleet behind one SessionManager API.

``repro.serve`` runs every session in one process; this package spreads
them across N worker processes — one private
:class:`~repro.serve.session.SessionManager` (and GIL) per shard —
behind a :class:`~repro.shard.router.ShardRouter` that speaks the same
``create`` / ``push`` / ``poll`` / ``flush_all`` / ``stats`` surface.
Sessions land on shards by consistent hash of their name
(:mod:`repro.shard.ring`), each request crosses the per-shard pipe as
one pickled record whose body is what the in-process call takes (so
updates come back whole, latency breakdowns included), and a dead
shard's sessions resume bit-identically on survivors from their ingest
recordings (:mod:`repro.shard.worker`).  Replaying a receiver fleet
through shards is :func:`repro.serve.simulate.run_serve_sim` with
``shards=N``.  See ``docs/sharding.md``.
"""

from repro.shard.ring import HashRing
from repro.shard.router import ShardError, ShardRouter, ShardSessionProxy
from repro.shard.worker import SHARD_CHUNK_SAMPLES, WorkerInit, shard_worker_main

__all__ = [
    "HashRing",
    "SHARD_CHUNK_SAMPLES",
    "ShardError",
    "ShardRouter",
    "ShardSessionProxy",
    "WorkerInit",
    "shard_worker_main",
]
