"""Declarative experiment-matrix specs: the ``repro.bench`` run table input.

A matrix spec is a plain dict (loaded from TOML or JSON, or built in
code) describing a sweep over the serving stack's capacity axes —
session count, shard count, kernel backend — times a repetition count.
The shape follows the benchalot/muBench idiom: ``axes`` holds the
per-axis value lists, everything else is a scalar knob shared by every
cell::

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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core.config import KERNEL_BACKENDS


class BenchError(ValueError):
    """A matrix spec, run table, or bench run is invalid."""


#: Sweepable axes, in canonical (expansion and cell-key) order.
AXES: Tuple[str, ...] = ("sessions", "shards", "kernel")

#: Default value for every axis a spec leaves unswept.
AXIS_DEFAULTS: Dict[str, Any] = {
    "sessions": 4,
    "shards": 0,  # 0 = one in-process SessionManager (repro.serve)
    "kernel": "batched",
}


@dataclass(frozen=True)
class Cell:
    """One fully resolved point of the experiment matrix."""

    sessions: int
    shards: int
    kernel: str

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``sessions=4/shards=1/kernel=batched``."""
        return "/".join(f"{axis}={getattr(self, axis)}" for axis in AXES)

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
        seed: Workload seed — receivers are sampled once per session
            count from this seed, so every cell sweeping the same
            session count replays the identical workload.
        duration_s: Per-receiver trajectory duration, seconds.
        block_seconds: Streaming emission cadence, seconds.
    """

    name: str
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    repetitions: int = 1
    seed: int = 0
    duration_s: float = 1.0
    block_seconds: float = 1.0

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
        if float(self.duration_s) <= 0:
            raise BenchError(f"duration_s must be > 0, got {self.duration_s}")
        if float(self.block_seconds) <= 0:
            raise BenchError(
                f"block_seconds must be > 0, got {self.block_seconds}"
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
            "seed": int(self.seed),
            "duration_s": float(self.duration_s),
            "block_seconds": float(self.block_seconds),
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
    order; unswept axes pin to :data:`AXIS_DEFAULTS`.
    """
    value_lists = [
        list(spec.axes.get(axis, [AXIS_DEFAULTS[axis]])) for axis in AXES
    ]
    return [Cell(*combo) for combo in itertools.product(*value_lists)]
