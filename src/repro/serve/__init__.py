"""Concurrent multi-session serving layer for streaming RIM.

The paper ships RIM as a single real-time stream on one device (§5,
§6.2.9); this package is the scale-out story: one process serving many
independent receivers at once.

* :class:`~repro.serve.session.SessionManager` owns many named
  :class:`~repro.core.streaming.StreamingRim` sessions — create / push /
  poll / evict, with TTL-based idle eviction.
* Each :class:`~repro.serve.session.ServeSession` fronts its estimator
  with a bounded ingest queue and an explicit backpressure policy
  (``"block"`` / ``"drop_oldest"`` / ``"reject"``); shed and reject
  counts surface in the session's per-block
  :class:`~repro.robustness.health.HealthReport`.
* :func:`~repro.serve.simulate.run_serve_sim` replays N simulated
  receivers concurrently (the ``repro.cli serve-sim`` verb), in this
  process or, with ``shards=N``, through a :mod:`repro.shard` fleet;
  per-session results are bit-identical whatever the worker or shard
  count.

Concurrency contract: sessions are independent — different sessions may
be driven from different threads freely.  A single session is a
single-producer object: drive any one session from one thread at a time.
"""

from __future__ import annotations

from repro.serve.session import (
    BACKPRESSURE_POLICIES,
    PUSH_ACCEPTED,
    PUSH_BLOCKED,
    PUSH_REJECTED,
    PUSH_SHED_OLDEST,
    ServeConfig,
    ServeSession,
    SessionManager,
)
from repro.serve.simulate import (
    render_serve_table,
    run_serve_sim,
    simulated_receivers,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "PUSH_ACCEPTED",
    "PUSH_BLOCKED",
    "PUSH_REJECTED",
    "PUSH_SHED_OLDEST",
    "ServeConfig",
    "ServeSession",
    "SessionManager",
    "render_serve_table",
    "run_serve_sim",
    "simulated_receivers",
]
