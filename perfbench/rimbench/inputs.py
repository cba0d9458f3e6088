"""Benchmark inputs: simulated CSI traces, cached on disk with a digest.

Simulating CSI costs milliseconds per sample, far more than processing
it, so every input is generated once, outside any timed window, and kept
under the checkout's cache directory as a ``repro.store`` chunk store.  A
sidecar file holds the SHA-256 of the store's files; it is checked before
every run, and a store whose bytes no longer match is regenerated.

The CSI comes from the §6.1 office testbed at a fixed testbed seed, and
the CSI-loss and wire-fault plans of the replayed stores are fixed too,
so the accuracy metrics repeat exactly from run to run.  The ``--seed``
argument decides the traffic built on top of it: the order of batch
traces, the packet arrival jitter of the live sessions, and where each
wire stream is forcibly disconnected.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Bump when generation changes, so old caches are never mistaken for new.
GENERATOR_VERSION = 1
# Seed of the simulated office (scatterers, noise); fixed on purpose.
TESTBED_SEED = 0


@dataclass(frozen=True)
class TraceSpec:
    """One simulated receiver trace.

    ``kind`` is ``line``, ``stop_go``, ``rotation`` or ``still``;
    ``array`` is ``linear`` (3 antennas) or ``hex`` (hexagonal, 6).
    Headings and angles are degrees; ``direction`` is the motion heading,
    which is also the device-frame heading because orientation stays 0.
    """

    name: str
    kind: str
    array: str
    spot: int
    duration: float = 0.0
    direction: float = 0.0
    speed: float = 0.5
    angle: float = 0.0
    angular_speed: float = 180.0

    @property
    def translating(self) -> bool:
        return self.kind in ("line", "stop_go")

    def key(self) -> str:
        blob = json.dumps(
            {"v": GENERATOR_VERSION, "bed": TESTBED_SEED, **asdict(self)},
            sort_keys=True,
        )
        return f"{self.name}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


# batch_office: long traces mixing the three kinds §6.2 evaluates.  Linear
# walks run along the array axis (0°/180°); hexagonal walks take on-grid
# (multiples of 30°) and off-grid directions; rotations spin at >= 180°/s,
# fast enough for the default max_lag to see them.
BATCH_SPECS: Tuple[TraceSpec, ...] = (
    TraceSpec("lin-fwd", "line", "linear", 0, duration=6.0, direction=0.0, speed=0.5),
    TraceSpec("lin-back", "line", "linear", 4, duration=6.0, direction=180.0, speed=1.0),
    TraceSpec("lin-stopgo", "stop_go", "linear", 7, duration=7.0, direction=0.0, speed=0.6),
    TraceSpec("hex-on0", "line", "hex", 1, duration=3.0, direction=0.0),
    TraceSpec("hex-on120", "line", "hex", 3, duration=3.0, direction=120.0),
    TraceSpec("hex-off45", "line", "hex", 5, duration=3.0, direction=45.0),
    TraceSpec("hex-off195", "line", "hex", 8, duration=3.0, direction=195.0),
    TraceSpec("rot-270a", "rotation", "hex", 0, angle=270.0, angular_speed=180.0),
    TraceSpec("rot-180", "rotation", "hex", 3, angle=-180.0, angular_speed=240.0),
    TraceSpec("rot-270b", "rotation", "hex", 7, angle=270.0, angular_speed=180.0),
)

ROTATION_SPECS = tuple(s for s in BATCH_SPECS if s.kind == "rotation")


def live_specs(seconds: float) -> List[Tuple[str, TraceSpec]]:
    """``(session, trace)`` pairs of the live fleet, each ``seconds`` long.

    Two linear walkers, one hexagonal walker, and seven still receivers
    (two still traces shared round-robin): ten sessions, so a 20 s run
    yields 200 one-second updates.  The mix keeps a 2-core host short of
    saturation; the session names place the hexagonal walker with one
    linear walker on one shard and the other linear walker on the other.
    """
    d = float(seconds)
    lin = [
        TraceSpec("live-lin0", "line", "linear", 0, duration=d, direction=0.0, speed=0.5),
        TraceSpec("live-lin1", "line", "linear", 3, duration=d, direction=180.0, speed=0.4),
    ]
    hexa = TraceSpec("live-hex0", "line", "hex", 1, duration=d, direction=45.0, speed=0.4)
    still = [
        TraceSpec("live-still0", "still", "linear", 2, duration=d),
        TraceSpec("live-still1", "still", "linear", 5, duration=d),
    ]
    pairs = [(f"rx-lin{k}", spec) for k, spec in enumerate(lin)]
    pairs.append(("rx-hex0", hexa))
    pairs += [(f"rx-still{k}", still[k % 2]) for k in range(7)]
    return pairs


# wire_replay: one linear and one hexagonal walker, replayed many times.
WIRE_SPECS: Tuple[Tuple[str, TraceSpec], ...] = (
    ("wire-lin", TraceSpec("wire-lin", "line", "linear", 4, duration=6.0, direction=180.0)),
    ("wire-hex", TraceSpec("wire-hex", "line", "hex", 8, duration=6.0, direction=120.0, speed=0.4)),
)


# -- generation ---------------------------------------------------------------


def _trajectory(spec: TraceSpec):
    from repro.eval.setup import MEASUREMENT_SPOTS
    from repro.motionsim.profiles import (
        line_trajectory,
        rotation_trajectory,
        still_trajectory,
        stop_and_go_trajectory,
    )

    spot = MEASUREMENT_SPOTS[spec.spot % len(MEASUREMENT_SPOTS)]
    if spec.kind == "line":
        return line_trajectory(spot, spec.direction, spec.speed, spec.duration)
    if spec.kind == "stop_go":
        # Move/pause alternation filling the requested duration.
        moves = [1.5] * max(1, int(spec.duration // 2.5))
        pauses = [1.0] * len(moves)
        return stop_and_go_trajectory(spot, spec.direction, spec.speed, moves, pauses)
    if spec.kind == "rotation":
        return rotation_trajectory(spot, spec.angle, angular_speed_deg=spec.angular_speed)
    if spec.kind == "still":
        return still_trajectory(spot, spec.duration)
    raise ValueError(f"unknown trace kind {spec.kind!r}")


def simulate(spec: TraceSpec):
    """Sample one trace on its own testbed instance (order-independent)."""
    from repro.arrays.geometry import hexagonal_array, linear_array
    from repro.eval.setup import make_testbed

    # A private testbed per trace keeps the sampler's noise stream a pure
    # function of the spec, whatever else was generated before it.
    seed = int(hashlib.sha256(spec.key().encode()).hexdigest()[:8], 16)
    bed = make_testbed(seed=TESTBED_SEED)
    bed.sampler.rng = np.random.default_rng(seed)
    array = linear_array(3) if spec.array == "linear" else hexagonal_array()
    return bed.sampler.sample(_trajectory(spec), array)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root`` (relative names + bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class InputCache:
    """Digest-checked cache of trace stores under one directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.generated: List[str] = []

    def _stored(self, rel: str, build) -> Path:
        """Path of a verified store ``rel``; ``build(tmp_dir)`` makes it."""
        path = self.root / rel
        sidecar = path.with_name(path.name + ".sha256")
        if path.is_dir() and sidecar.is_file():
            if tree_digest(path) == sidecar.read_text().strip():
                return path
        shutil.rmtree(path, ignore_errors=True)
        tmp = path.with_name(path.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        build(tmp)
        digest = tree_digest(tmp)
        tmp.rename(path)
        sidecar.write_text(digest + "\n")
        self.generated.append(rel)
        return path

    def path(self, spec: TraceSpec) -> Path:
        """The verified store of ``spec``, generating it on a miss."""
        from repro.store.writer import write_trace

        return self._stored(
            f"traces/{spec.key()}", lambda tmp: write_trace(tmp, simulate(spec))
        )

    @staticmethod
    def read(path: Path):
        """The whole trace held by a store."""
        from repro.store.reader import TraceReader

        with TraceReader(path, policy="raise") as reader:
            return reader.read_trace()

    def trace(self, spec: TraceSpec):
        """The simulated trace for ``spec``, generating it on a miss."""
        return self.read(self.path(spec))

    @staticmethod
    def geometry(path: Path) -> Tuple[object, float, float, Tuple[int, ...]]:
        """``(array, sampling_rate, carrier_wavelength, sample_shape)`` of a
        store, without reading its CSI."""
        from repro.store.reader import TraceReader

        with TraceReader(path, policy="raise") as reader:
            return (
                reader.array,
                float(reader.sampling_rate),
                reader.carrier_wavelength,
                tuple(reader.sample_shape),
            )

    def traces(self, specs: Sequence[TraceSpec]) -> Dict[str, object]:
        return {spec.name: self.trace(spec) for spec in specs}

    def faulted_store(self, spec: TraceSpec, seed: int, loss_rate: float, burst: int) -> Path:
        """A store holding ``spec`` with seeded CSI loss bursts recorded in."""
        from repro.robustness.faults import FaultPlan
        from repro.store.writer import write_trace

        plan = FaultPlan(seed=seed, loss_rate=loss_rate, loss_burst=burst)

        def build(tmp: Path) -> None:
            write_trace(tmp, plan.apply(self.trace(spec)))

        tag = hashlib.sha256(repr(plan).encode()).hexdigest()[:10]
        return self._stored(f"replay/{spec.key()}-s{seed}-{tag}", build)

