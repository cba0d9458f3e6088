"""Declarative experiment-matrix specs: the ``repro.bench`` run table input.

A matrix spec is a plain dict (loaded from TOML or JSON, or built in
code) describing a sweep over the serving stack's capacity axes —
session count, shard count, kernel backend, kernel precision, wire-fault
plan, backpressure policy — times a repetition count.  The shape follows
the benchalot/muBench idiom: ``axes`` holds the per-axis value lists,
everything else is a scalar knob shared by every cell::

    name = "smoke"
    repetitions = 2
    seed = 0
    duration_s = 1.0

    [axes]
    sessions = [2, 4]
    shards = [1, 2]
    kernel = ["reference", "batched"]

:func:`expand_matrix` expands the cross product into :class:`Cell`
values in a deterministic order (axes iterated in :data:`AXES` order,
values in spec order), so the same spec always produces the same run
table layout.  Validation happens eagerly in :meth:`MatrixSpec.validate`
— a bad axis name or value fails before any cell runs.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.config import KERNEL_BACKENDS, KERNEL_DTYPES


class BenchError(ValueError):
    """A matrix spec, run table, or bench run is invalid."""


#: Sweepable axes, in canonical (expansion and cell-key) order.
AXES: Tuple[str, ...] = (
    "sessions", "shards", "kernel", "dtype", "fault_plan", "backpressure"
)

#: Default value for every axis a spec leaves unswept.
AXIS_DEFAULTS: Dict[str, Any] = {
    "sessions": 4,
    "shards": 0,  # 0 = one in-process SessionManager (repro.serve)
    "kernel": "batched",
    "dtype": "float64",
    "fault_plan": "",  # non-empty = loopback net front-end (repro.net)
    "backpressure": "block",
}

_KNOWN_POLICIES = ("block", "drop_oldest", "reject")


@dataclass(frozen=True)
class Cell:
    """One fully resolved point of the experiment matrix."""

    sessions: int
    shards: int
    kernel: str
    dtype: str
    fault_plan: str
    backpressure: str

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``sessions=4/shards=1/kernel=batched/...``."""
        return "/".join(f"{axis}={getattr(self, axis)}" for axis in AXES)

    @property
    def deterministic(self) -> bool:
        """Whether the cell's outputs are replay-deterministic.

        ``block`` backpressure never sheds, so update counts and total
        distance are pure functions of the (seeded) workload — including
        the net path, whose wire faults are pure functions of
        ``(seed, seq)``.  ``drop_oldest``/``reject`` shed based on queue
        timing, so only their workload identity is deterministic.
        """
        return self.backpressure == "block"

    def to_dict(self) -> Dict[str, Any]:
        return {axis: getattr(self, axis) for axis in AXES}


@dataclass
class MatrixSpec:
    """A validated experiment matrix: axes x repetitions plus shared knobs.

    Args:
        name: Spec name (labels the run table).
        axes: Axis name -> list of values to sweep; unlisted axes pin to
            :data:`AXIS_DEFAULTS`.
        repetitions: Measured runs per cell (spread comes from these).
        warmup: Unmeasured runs per cell before the measured ones.
        cooldown_s: Sleep between measured runs (muBench-style cooldown).
        seed: Workload seed — receivers are sampled once per session
            count from this seed, so every cell sweeping the same
            session count replays the identical workload.
        duration_s: Per-receiver trajectory duration, seconds.
        block_seconds: Streaming emission cadence, seconds.
        workers: Worker-thread count for in-process (``shards=0``) cells.
        queue_capacity: Per-session ingest queue bound, packets.
    """

    name: str
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    repetitions: int = 1
    warmup: int = 0
    cooldown_s: float = 0.0
    seed: int = 0
    duration_s: float = 1.0
    block_seconds: float = 1.0
    workers: int = 4
    queue_capacity: int = 256

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise BenchError(f"spec needs a non-empty name, got {self.name!r}")
        if not isinstance(self.axes, dict):
            raise BenchError(f"axes must be a dict, got {type(self.axes).__name__}")
        unknown = sorted(set(self.axes) - set(AXES))
        if unknown:
            raise BenchError(
                f"unknown axes {unknown}: sweepable axes are {list(AXES)}"
            )
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise BenchError(
                    f"axis {axis!r} must be a non-empty list, got {values!r}"
                )
            if len(set(map(str, values))) != len(values):
                raise BenchError(f"axis {axis!r} has duplicate values: {values}")
            for value in values:
                self._validate_axis_value(axis, value)
        if int(self.repetitions) < 1:
            raise BenchError(f"repetitions must be >= 1, got {self.repetitions}")
        if int(self.warmup) < 0:
            raise BenchError(f"warmup must be >= 0, got {self.warmup}")
        if float(self.cooldown_s) < 0:
            raise BenchError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if float(self.duration_s) <= 0:
            raise BenchError(f"duration_s must be > 0, got {self.duration_s}")
        if float(self.block_seconds) <= 0:
            raise BenchError(
                f"block_seconds must be > 0, got {self.block_seconds}"
            )
        if int(self.workers) < 1:
            raise BenchError(f"workers must be >= 1, got {self.workers}")
        if int(self.queue_capacity) < 1:
            raise BenchError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )

    @staticmethod
    def _validate_axis_value(axis: str, value: Any) -> None:
        if axis == "sessions":
            if not isinstance(value, int) or value < 1:
                raise BenchError(f"sessions values must be ints >= 1, got {value!r}")
        elif axis == "shards":
            if not isinstance(value, int) or value < 0:
                raise BenchError(f"shards values must be ints >= 0, got {value!r}")
        elif axis == "kernel":
            if value not in KERNEL_BACKENDS:
                raise BenchError(
                    f"kernel values must be one of {KERNEL_BACKENDS}, got {value!r}"
                )
        elif axis == "dtype":
            if value not in KERNEL_DTYPES:
                raise BenchError(
                    f"dtype values must be one of {KERNEL_DTYPES}, got {value!r}"
                )
        elif axis == "backpressure":
            if value not in _KNOWN_POLICIES:
                raise BenchError(
                    f"backpressure values must be one of {_KNOWN_POLICIES}, "
                    f"got {value!r}"
                )
        elif axis == "fault_plan":
            if not isinstance(value, str):
                raise BenchError(f"{axis} values must be strings, got {value!r}")

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "MatrixSpec":
        """Build and validate a spec from a parsed TOML/JSON dict."""
        if not isinstance(raw, dict):
            raise BenchError(f"matrix spec must be a dict, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise BenchError(
                f"unknown spec keys {unknown}: known keys are {sorted(known)}"
            )
        if "name" not in raw:
            raise BenchError("matrix spec needs a 'name'")
        return cls(**raw)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "axes": {axis: list(values) for axis, values in self.axes.items()},
            "repetitions": int(self.repetitions),
            "warmup": int(self.warmup),
            "cooldown_s": float(self.cooldown_s),
            "seed": int(self.seed),
            "duration_s": float(self.duration_s),
            "block_seconds": float(self.block_seconds),
            "workers": int(self.workers),
            "queue_capacity": int(self.queue_capacity),
        }


def load_spec(path) -> MatrixSpec:
    """Load a matrix spec from a ``.toml`` or ``.json`` file.

    TOML needs the stdlib ``tomllib`` (python >= 3.11); JSON works
    everywhere, so CI smoke matrices stay loadable on every tier-1
    interpreter.
    """
    path = Path(path)
    if not path.is_file():
        raise BenchError(f"matrix spec not found: {path}")
    suffix = path.suffix.lower()
    if suffix == ".json":
        raw = json.loads(path.read_text(encoding="utf-8"))
    elif suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # python < 3.11
            raise BenchError(
                f"loading {path} needs tomllib (python >= 3.11); "
                "use a .json spec on older interpreters"
            ) from exc
        raw = tomllib.loads(path.read_text(encoding="utf-8"))
    else:
        raise BenchError(
            f"matrix spec must be .toml or .json, got {path.name!r}"
        )
    return MatrixSpec.from_dict(raw)


def expand_matrix(spec: MatrixSpec) -> List[Cell]:
    """Expand the spec's cross product into cells, deterministically.

    Axes iterate in :data:`AXES` order with each axis's values in spec
    order; unswept axes pin to :data:`AXIS_DEFAULTS`.  Unsupported
    combinations (a wire-fault plan on a sharded cell — ``run_net_load``
    drives a single-manager loopback server) fail here, before any cell
    runs.
    """
    value_lists = [
        list(spec.axes.get(axis, [AXIS_DEFAULTS[axis]])) for axis in AXES
    ]
    cells = [Cell(*combo) for combo in itertools.product(*value_lists)]
    for cell in cells:
        if cell.fault_plan and cell.shards >= 1:
            raise BenchError(
                f"cell {cell.key} combines a wire-fault plan with a shard "
                "fleet; the net front-end path benches a single-manager "
                "loopback server (drop the shards axis or the fault plan)"
            )
    return cells


def cell_seed(spec_seed: int, key: str) -> int:
    """Deterministic per-cell seed derived from the spec seed and key."""
    return (int(spec_seed) * 1_000_003 + zlib.crc32(key.encode("utf-8"))) % (2**31)


def parse_filters(exprs: Iterable[str]) -> List[Tuple[str, str]]:
    """Parse ``--filter KEY=VALUE`` expressions.

    ``KEY`` is an axis name (exact value match against the cell) or the
    literal ``cell`` (substring match against the full cell key).
    """
    filters: List[Tuple[str, str]] = []
    for expr in exprs:
        key, sep, value = expr.partition("=")
        if not sep or not key:
            raise BenchError(f"filter must look like KEY=VALUE, got {expr!r}")
        if key != "cell" and key not in AXES:
            raise BenchError(
                f"filter key must be 'cell' or one of {list(AXES)}, got {key!r}"
            )
        filters.append((key, value))
    return filters


def match_cell(cell: Cell, filters: Sequence[Tuple[str, str]]) -> bool:
    """Whether a cell passes every filter (AND semantics)."""
    for key, value in filters:
        if key == "cell":
            if value not in cell.key:
                return False
        elif str(getattr(cell, key)) != value:
            return False
    return True
