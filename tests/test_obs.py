"""Observability layer: stage timers, metrics registry, pipeline stats.

Covers:

* ``obs.span(name)`` observes each ``with`` block's wall time into the
  ``span.<name>`` histogram of ``obs.METRICS``, with inclusive times
  (an outer span covers its inner ones);
* disabled instrumentation is a true no-op (a shared null context, an
  empty registry);
* the batch and streaming paths feed one ``span.*`` row per stage, and
  ``MotionUpdate.stats`` carries only the block latency (plus provenance
  when a context rode the block);
* instrumentation never perturbs numerics — a traced run is bit-for-bit
  identical to an untraced run (tier-1 guard for every future obs change).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Rim, RimConfig, StreamingRim, obs
from repro.obs.metrics import Histogram, MetricsRegistry, bucket_percentile


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with instrumentation off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# -- stage timers ---------------------------------------------------------


def _span(name: str) -> Histogram:
    hist = obs.METRICS.get(f"span.{name}")
    assert isinstance(hist, Histogram), f"no span.{name} histogram"
    return hist


def test_spans_nest_correctly():
    """Span times are inclusive: an outer span covers its inner ones."""
    obs.enable()
    with obs.span("outer") as entered:
        assert entered is None  # a timer, not a tree node
        with obs.span("inner_a"):
            pass
        with obs.span("inner_b"):
            with obs.span("leaf"):
                pass
    outer, inner_a, inner_b, leaf = (
        _span(n) for n in ("outer", "inner_a", "inner_b", "leaf")
    )
    for hist in (outer, inner_a, inner_b, leaf):
        assert hist.count == 1
        assert hist.bounds == obs.LATENCY_BOUNDS_S
    assert outer.total >= inner_a.total + inner_b.total
    assert inner_b.total >= leaf.total


def test_span_aggregation_groups_by_name():
    """Every call of one name lands in its one histogram, sum exact."""
    obs.enable()
    with obs.span("root"):
        for _ in range(3):
            with obs.span("stage"):
                pass
    stage, root = _span("stage"), _span("root")
    assert stage.count == 3 and sum(stage.counts) == 3
    assert root.count == 1
    assert stage.total <= root.total
    table = obs.METRICS.render_table()
    assert f"sum={stage.total:.6g}" in table and "span.stage" in table


def test_span_records_a_block_that_raises():
    obs.enable()
    with pytest.raises(ValueError):
        with obs.span("failing"):
            raise ValueError("stage failed")
    assert _span("failing").count == 1


def test_disabled_tracer_is_noop():
    ctx = obs.span("anything")
    assert ctx is obs.NULL_SPAN  # shared singleton: no per-call allocation
    with ctx as entered:
        assert entered is None
    assert len(obs.METRICS) == 0


def test_disabled_obs_records_nothing():
    obs.add("some.counter", 5)
    obs.observe("some.hist", 0.5)
    obs.set_gauge("some.gauge", 1.0)
    with obs.span("nothing"):
        pass
    assert len(obs.METRICS) == 0


def test_traced_process_keeps_no_span_tree_after_its_result(line_trace):
    """Traced calls add observations, never metrics or per-call state.

    Every telemetry flag of the serving verbs turns tracing on for the
    whole run, so anything kept per ``Rim.process`` call would grow
    without bound: 50 traced calls must leave the registry the size one
    call leaves it, with 50 observations in ``span.rim.process``.
    """
    obs.enable()
    rim = Rim(RimConfig(max_lag=40))
    result = rim.process(line_trace)
    assert not hasattr(result, "stats")
    size = len(obs.METRICS)
    for _ in range(49):
        rim.process(line_trace)
    assert len(obs.METRICS) == size
    assert _span("rim.process").count == 50


# -- metrics --------------------------------------------------------------


def test_histogram_stats_and_percentiles():
    reg = MetricsRegistry()
    hist = reg.histogram("h", bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0, 10.0):
        hist.observe(v)
    assert hist.count == 5
    assert hist.vmin == 0.5 and hist.vmax == 10.0
    assert hist.counts == [1, 2, 1, 1]
    assert hist.percentile(0.5) == 2.0  # bucket upper bound
    assert hist.percentile(1.0) == 10.0
    hist.observe(float("nan"))
    assert hist.count == 5  # NaN observations are ignored
    assert "n=5" in hist.summary()


def test_bucket_percentile_live_snapshot_and_empty():
    """One bucket walk: a live histogram, its snapshot, and obs-top agree."""
    from repro.obs.export import session_rows

    def from_snapshot(snap, q):
        return bucket_percentile(
            snap["bounds"], snap["counts"], snap["count"], snap["max"], q
        )

    hist = Histogram("t", bounds=(0.1, 0.5, 1.0))
    for v in (0.05, 0.2, 0.3, 0.4, 0.7, 0.9, 0.95):
        hist.observe(v)
    snap = hist.snapshot()
    for q in (0.0, 0.1, 0.5, 0.9, 0.95, 1.0):
        assert from_snapshot(snap, q) == hist.percentile(q)
    assert hist.percentile(0.5) == 0.5  # bucket upper bound
    assert hist.percentile(1.0) == 0.95  # last bucket clamped by the max
    row = session_rows({"serve.block_latency_s{session=a}": snap})[0]
    assert (row["p50_s"], row["p95_s"]) == (
        hist.percentile(0.5), hist.percentile(0.95)
    )

    empty = Histogram("e")
    assert np.isnan(empty.percentile(0.5))
    assert np.isnan(from_snapshot(empty.snapshot(), 0.5))
    with pytest.raises(ValueError):
        hist.percentile(1.5)
    with pytest.raises(ValueError):
        from_snapshot(snap, -0.1)


def test_metric_kind_collision_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_apply_snapshot_counter_deltas_never_double_count():
    """Repeated applications of a growing source advance by deltas only."""
    src = MetricsRegistry()
    dst = MetricsRegistry()
    src.counter("work.items").add(10)
    prev = dst.apply_snapshot(src.snapshot())
    assert dst.counter("work.items").value == 10
    src.counter("work.items").add(5)
    prev = dst.apply_snapshot(src.snapshot(), previous=prev)
    assert dst.counter("work.items").value == 15
    # Applying the identical snapshot again is a no-op.
    dst.apply_snapshot(src.snapshot(), previous=prev)
    assert dst.counter("work.items").value == 15


def test_apply_snapshot_counter_restart_counts_whole():
    """A source whose counter regressed is treated as a fresh process."""
    src = MetricsRegistry()
    dst = MetricsRegistry()
    src.counter("pushes").add(100)
    prev = dst.apply_snapshot(src.snapshot())
    restarted = MetricsRegistry()
    restarted.counter("pushes").add(3)
    dst.apply_snapshot(restarted.snapshot(), previous=prev)
    assert dst.counter("pushes").value == 103


def test_apply_snapshot_gauge_last_wins():
    src = MetricsRegistry()
    dst = MetricsRegistry()
    dst.gauge("queue.depth").set(99.0)
    src.gauge("queue.depth").set(7.0)
    dst.apply_snapshot(src.snapshot())
    assert dst.gauge("queue.depth").value == 7.0


def test_apply_snapshot_histogram_merges_by_bucket_delta():
    src = MetricsRegistry()
    dst = MetricsRegistry()
    hist = src.histogram("lat", bounds=(1.0, 2.0))
    for v in (0.5, 1.5):
        hist.observe(v)
    prev = dst.apply_snapshot(src.snapshot())
    merged = dst.histogram("lat", bounds=(1.0, 2.0))
    assert merged.count == 2 and merged.counts == [1, 1, 0]
    hist.observe(10.0)
    dst.apply_snapshot(src.snapshot(), previous=prev)
    assert merged.count == 3
    assert merged.counts == [1, 1, 1]
    assert merged.vmin == 0.5 and merged.vmax == 10.0


def test_apply_snapshot_histogram_bounds_mismatch_is_ignored():
    """Never corrupt local buckets with an incompatible remote layout."""
    src = MetricsRegistry()
    dst = MetricsRegistry()
    dst.histogram("lat", bounds=(1.0, 2.0)).observe(0.5)
    src.histogram("lat", bounds=(10.0, 20.0)).observe(15.0)
    dst.apply_snapshot(src.snapshot())
    local = dst.histogram("lat", bounds=(1.0, 2.0))
    assert local.count == 1
    assert local.counts == [1, 0, 0]


def test_apply_snapshot_merges_two_sources():
    """Two workers' counters sum; per-source previous keeps them apart."""
    a, b, dst = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    a.counter("n").add(4)
    b.counter("n").add(6)
    prev_a = dst.apply_snapshot(a.snapshot())
    prev_b = dst.apply_snapshot(b.snapshot())
    assert dst.counter("n").value == 10
    a.counter("n").add(1)
    dst.apply_snapshot(a.snapshot(), previous=prev_a)
    dst.apply_snapshot(b.snapshot(), previous=prev_b)
    assert dst.counter("n").value == 11


def test_registry_concurrent_updates_never_torn():
    """Snapshots under concurrent writers are internally consistent.

    Writer threads hammer a counter and a histogram while a reader loops
    ``snapshot()`` and serializes it.  Every observed snapshot must be
    self-consistent (bucket counts summing to the histogram count, count
    never ahead of the true total), and the final values must be exact —
    no lost increments, no torn multi-field reads.
    """
    import json as _json
    import threading

    reg = MetricsRegistry()
    counter = reg.counter("stress.count")
    hist = reg.histogram("stress.lat", bounds=(0.1, 0.2, 0.5))
    n_writers, n_iters = 4, 2000
    start = threading.Barrier(n_writers + 2)
    stop = threading.Event()
    torn = []

    def writer(seed: int) -> None:
        start.wait()
        values = (0.05, 0.15, 0.3, 0.7)
        for k in range(n_iters):
            counter.add(1)
            hist.observe(values[(k + seed) % len(values)])

    def reader() -> None:
        start.wait()
        while not stop.is_set():
            snap = reg.snapshot()
            h = snap["stress.lat"]
            if sum(h["counts"]) != h["count"]:
                torn.append(("bucket-sum", h))
            if snap["stress.count"]["value"] > n_writers * n_iters:
                torn.append(("overcount", snap["stress.count"]))
            _json.dumps(snap)

    threads = [
        threading.Thread(target=writer, args=(k,)) for k in range(n_writers)
    ] + [threading.Thread(target=reader), threading.Thread(target=reader)]
    for t in threads:
        t.start()
    for t in threads[:n_writers]:
        t.join()
    stop.set()
    for t in threads[n_writers:]:
        t.join()

    assert not torn, torn[:3]
    assert counter.value == n_writers * n_iters
    assert hist.count == n_writers * n_iters
    assert sum(hist.counts) == hist.count


def test_registry_collectors_run_at_snapshot_time():
    reg = MetricsRegistry()
    gauge = reg.gauge("live.depth")
    calls = []

    def collect():
        calls.append(1)
        gauge.set(float(len(calls)))

    reg.add_collector(collect)
    assert reg.snapshot()["live.depth"]["value"] == 1.0
    assert reg.snapshot()["live.depth"]["value"] == 2.0

    # Returning False deregisters (the weakref-owner convention); so does
    # raising.
    reg.add_collector(lambda: False)
    reg.snapshot()
    reg.snapshot()

    def broken():
        raise RuntimeError("collector died")

    reg.add_collector(broken)
    reg.snapshot()  # dropped, not propagated
    before = len(calls)
    reg.snapshot()
    assert len(calls) == before + 1  # the healthy collector survives


# -- pipeline stats -------------------------------------------------------

RIM_STAGES = (
    "rim.guard",
    "rim.sanitize",
    "rim.movement_detect",
    "rim.normalize",
    "rim.pre_screen",
    "rim.track_groups",
    "rim.rotation_detect",
    "rim.integrate",
)


def test_rim_result_stats_batch(line_trace):
    """One traced ``Rim.process`` fills one ``span.rim.*`` row per stage."""
    obs.enable()
    result = Rim(RimConfig(max_lag=40)).process(line_trace)
    assert not hasattr(result, "stats")
    snap = obs.METRICS.snapshot()
    rim_spans = {
        name[len("span."):]: rec
        for name, rec in snap.items()
        if name.startswith("span.rim.")
    }
    assert set(rim_spans) == {"rim.process", *RIM_STAGES}
    for name, rec in rim_spans.items():
        assert rec["type"] == "histogram" and rec["count"] == 1, name
    # The stages run one after another inside the call.
    stage_sum = sum(rim_spans[stage]["sum"] for stage in RIM_STAGES)
    assert 0.0 < stage_sum <= rim_spans["rim.process"]["sum"]
    # The kernels time themselves inside the stages.
    assert snap["span.alignment_matrix"]["count"] > 0
    assert snap["span.dp_tracking"]["count"] > 0
    assert obs.METRICS.counter("rim.samples_processed").value == line_trace.n_samples
    assert obs.METRICS.counter("alignment.matrices").value > 0
    assert obs.METRICS.counter("dp.paths_tracked").value > 0
    prominence = obs.METRICS.get("trrs.peak_prominence")
    assert prominence is not None and prominence.count > 0


def test_rim_result_stats_absent_when_disabled(line_trace):
    result = Rim(RimConfig(max_lag=40)).process(line_trace)
    assert not hasattr(result, "stats")
    assert len(obs.METRICS) == 0


def test_streaming_stats_and_latency_histogram(line_trace):
    cfg = RimConfig(max_lag=40)
    obs.enable()
    stream = StreamingRim(
        line_trace.array,
        line_trace.sampling_rate,
        cfg,
        block_seconds=0.5,
        carrier_wavelength=line_trace.carrier_wavelength,
    )
    updates = []
    for k in range(line_trace.n_samples):
        up = stream.push(line_trace.data[k], float(line_trace.times[k]))
        if up is not None:
            updates.append(up)
    up = stream.flush()
    if up is not None:
        updates.append(up)

    assert len(updates) >= 2
    for update in updates:
        # No provenance context rode these samples, so only the latency.
        assert set(update.stats) == {"block_latency_s"}
        assert update.stats["block_latency_s"] > 0.0

    block = _span("stream.block")
    assert block.count == len(updates)
    # The batch pipeline runs inside every block, and each update's
    # latency brackets its block span.
    process = _span("rim.process")
    assert process.count == len(updates)
    assert process.total <= block.total
    assert block.total <= sum(u.stats["block_latency_s"] for u in updates)
    assert "stream.block_latency_s" not in obs.METRICS
    assert "stream.last_block_latency_s" not in obs.METRICS
    assert obs.METRICS.counter("stream.blocks").value == len(updates)
    assert (
        obs.METRICS.counter("stream.samples_emitted").value == line_trace.n_samples
    )


def test_streaming_stats_absent_when_disabled(line_trace):
    stream = StreamingRim(
        line_trace.array,
        line_trace.sampling_rate,
        RimConfig(max_lag=40),
        block_seconds=0.5,
        carrier_wavelength=line_trace.carrier_wavelength,
    )
    seen = 0
    for k in range(line_trace.n_samples):
        up = stream.push(line_trace.data[k], float(line_trace.times[k]))
        if up is not None:
            assert up.stats is None
            seen += 1
    assert seen >= 1
    assert len(obs.METRICS) == 0


# -- numeric invariance (tier-1 guard) ------------------------------------


def test_tracing_never_perturbs_numerics(line_trace):
    """Enabled instrumentation must match a disabled run bit-for-bit."""
    cfg = RimConfig(max_lag=40)
    baseline = Rim(cfg).process(line_trace)

    obs.enable()
    traced = Rim(cfg).process(line_trace)
    obs.disable()

    for attr in ("speed", "heading", "moving", "group_choice", "times"):
        a = getattr(baseline.motion, attr)
        b = getattr(traced.motion, attr)
        assert a.tobytes() == b.tobytes(), f"motion.{attr} diverged under tracing"
    assert (
        baseline.movement.indicator.tobytes() == traced.movement.indicator.tobytes()
    )
    assert baseline.total_distance == traced.total_distance
    assert len(baseline.group_tracks) == len(traced.group_tracks)
    for t0, t1 in zip(baseline.group_tracks, traced.group_tracks):
        assert t0.path.refined_lags.tobytes() == t1.path.refined_lags.tobytes()
        assert t0.matrix.values.tobytes() == t1.matrix.values.tobytes()
