"""The program names the benchmark under ``perfbench/`` reaches into.

``perfbench/rimbench/layers.py`` wraps program entry points in timing
proxies for its traced run, and the wire workload reads ``NetClient``
counters and ``ShardRouter.shard_of``.  Nothing else in the tier-1 suite
touches those names, so without these checks a rename would surface only
when the benchmark runs.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

from repro.net import NetClient
from repro.shard import ShardRouter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from rimbench import layers

        yield layers
    finally:
        sys.path.remove(str(PERFBENCH))


def test_layer_probes_wrap_every_hook_and_restore_it(layers):
    probes = layers.LayerProbes()
    try:
        probes.install()
        wrapped = list(probes._undo)
        assert len(wrapped) == 15
        for owner, name, original in wrapped:
            assert original is not None, f"{owner.__name__}.{name} is missing"
            assert getattr(owner, name) is not original
    finally:
        probes.remove()
    for owner, name, original in wrapped:
        assert vars(owner)[name] is original


def test_wire_workload_client_and_router_hooks(three_antenna):
    client = NetClient(
        "127.0.0.1", 0, "rx00", three_antenna, 200.0, sample_shape=(3, 1, 30)
    )
    assert client.acked == -1
    assert client.updates == []
    assert callable(client._drain_incoming)
    assert client.n_sent_frames == 0
    assert client.n_reconnects == 0
    assert client.recovery_times_s == []
    assert list(inspect.signature(ShardRouter.shard_of).parameters) == [
        "self",
        "name",
    ]


def test_pipe_records_reach_the_send_probe_as_bytes(line_trace, monkeypatch):
    # perfbench counts len(raw) of every ShardRouter._send as
    # shard.bytes_sent, which only means bytes while records are bytes.
    sent = []
    send = ShardRouter._send

    def probe(router, shard, raw):
        sent.append(raw)
        return send(router, shard, raw)

    monkeypatch.setattr(ShardRouter, "_send", probe)
    with ShardRouter(1) as router:
        router.create(
            "rx00", line_trace.array, line_trace.sampling_rate,
            carrier_wavelength=line_trace.carrier_wavelength,
        )
        router.push("rx00", line_trace.data[0], float(line_trace.times[0]))
        router.note_repair("rx00", "net_gap_samples")
        router.flush("rx00")
    assert len(sent) == 2
    for raw in sent:
        assert type(raw) is bytes and len(raw) > 0
