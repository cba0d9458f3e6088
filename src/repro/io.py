"""Trace metadata codecs shared by the store and net layers.

A real deployment records CSI once and reprocesses it many times (tuning
configs, comparing algorithms), so traces need a stable on-disk format.
That format is the chunked, append-only, integrity-checked store of
:mod:`repro.store`.  This module holds its format-version check and the
JSON codecs for the antenna array and the ground-truth trajectory, which
the store manifest and the net HELLO share.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from repro.arrays.geometry import AntennaArray
from repro.motionsim.trajectory import Trajectory


def check_format_version(
    version: Any, supported: Sequence[int], what: str = "trace archive"
) -> int:
    """Validate an on-disk format version against what this build reads.

    :class:`repro.store.TraceReader` runs it on the store manifest, so
    an unknown version fails loudly instead of silently reading a
    future layout.

    Args:
        version: The version field as found on disk (any int-like).
        supported: Versions this build understands.
        what: Human-readable name of the container, for the error message.

    Returns:
        The validated version as an int.

    Raises:
        ValueError: On a version outside ``supported``.
    """
    try:
        version = int(version)
    except (TypeError, ValueError):
        raise ValueError(
            f"malformed {what} format version {version!r} (not an integer)"
        ) from None
    allowed = tuple(int(v) for v in supported)
    if version not in allowed:
        raise ValueError(
            f"unsupported {what} format version {version} "
            f"(this build reads versions {sorted(allowed)})"
        )
    return version


# -- array / trajectory manifest codecs ---------------------------------------
#
# JSON-friendly encodings of the trace metadata; the chunked store
# (repro.store) embeds these dicts in its sidecar manifest.


def array_to_manifest(array: AntennaArray) -> Dict[str, Any]:
    """Encode an :class:`AntennaArray` as a JSON-serializable dict."""
    return {
        "name": array.name,
        "local_positions": np.asarray(array.local_positions, dtype=np.float64)
        .tolist(),
        "nic_assignment": np.asarray(array.nic_assignment, dtype=np.int64)
        .tolist(),
        "circular": bool(array.circular),
    }


def array_from_manifest(payload: Dict[str, Any]) -> AntennaArray:
    """Rebuild an :class:`AntennaArray` from :func:`array_to_manifest`."""
    return AntennaArray(
        name=str(payload["name"]),
        local_positions=np.asarray(payload["local_positions"], dtype=np.float64),
        nic_assignment=np.asarray(payload["nic_assignment"], dtype=np.int64),
        circular=bool(payload["circular"]),
    )


def trajectory_to_manifest(trajectory: Trajectory) -> Dict[str, Any]:
    """Encode a ground-truth :class:`Trajectory` as a JSON-serializable dict.

    Floats go through Python's repr (shortest round-trip), so positions
    survive the JSON hop bit-exactly.
    """
    return {
        "times": np.asarray(trajectory.times, dtype=np.float64).tolist(),
        "positions": np.asarray(trajectory.positions, dtype=np.float64).tolist(),
        "orientations": np.asarray(trajectory.orientations, dtype=np.float64)
        .tolist(),
    }


def trajectory_from_manifest(payload: Dict[str, Any]) -> Trajectory:
    """Rebuild a :class:`Trajectory` from :func:`trajectory_to_manifest`."""
    return Trajectory(
        times=np.asarray(payload["times"], dtype=np.float64),
        positions=np.asarray(payload["positions"], dtype=np.float64),
        orientations=np.asarray(payload["orientations"], dtype=np.float64),
    )
