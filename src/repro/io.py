"""CSI trace persistence: reading the legacy whole-trace ``.npz`` format.

A real deployment records CSI once and reprocesses it many times (tuning
configs, comparing algorithms), so traces need a stable on-disk format.
That format is the chunked, append-only, integrity-checked store of
:mod:`repro.store`, the only trace writer.  This module keeps
:func:`load_trace` for existing single-file ``.npz`` archives, which
``python -m repro.cli convert`` (:func:`repro.store.npz_to_store`)
imports into a store, and holds the pieces both formats share
(format-version validation, array/trajectory manifest codecs) so the two
loaders cannot drift apart.

The archive layout (format version 1) is one compressed NumPy archive
with the entries ``format_version``, ``data``, ``times``,
``tx_positions``, ``carrier_wavelength``, ``array_name``,
``array_positions``, ``array_nics``, ``array_circular``, ``traj_times``,
``traj_positions`` and ``traj_orientations``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Sequence

import numpy as np

from repro.arrays.geometry import AntennaArray
from repro.channel.sampler import CsiTrace
from repro.motionsim.trajectory import Trajectory

# Every .npz format version this build can read.  repro.store keeps its
# own (binary chunk) version constant but funnels it through the same
# check_format_version helper below.
SUPPORTED_NPZ_VERSIONS = (1,)


def check_format_version(
    version: Any, supported: Sequence[int], what: str = "trace archive"
) -> int:
    """Validate an on-disk format version against what this build reads.

    Shared by the legacy ``.npz`` loader and the :mod:`repro.store`
    manifest/chunk readers, so "unknown version" always fails the same
    way instead of silently reading a future layout.

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
# JSON-friendly encodings of the trace metadata both persistence formats
# need.  The legacy .npz stores the same fields as archive entries; the
# chunked store (repro.store) embeds these dicts in its sidecar manifest.


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


# -- legacy .npz reader --------------------------------------------------------


def load_trace(path) -> CsiTrace:
    """Read a CSI trace from a legacy ``.npz`` archive (layout above).

    Unknown ``format_version`` values are rejected through the shared
    :func:`check_format_version` helper (also used by the chunked store),
    so a future layout fails loudly instead of being misread.

    Raises:
        ValueError: On unknown format versions or malformed archives.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "format_version" not in archive.files:
            raise ValueError(
                f"{path} is not a RIM trace archive (no format_version field)"
            )
        check_format_version(
            archive["format_version"], SUPPORTED_NPZ_VERSIONS, what=".npz trace"
        )
        array = AntennaArray(
            name=bytes(archive["array_name"]).decode(),
            local_positions=archive["array_positions"],
            nic_assignment=archive["array_nics"],
            circular=bool(archive["array_circular"]),
        )
        trajectory = Trajectory(
            times=archive["traj_times"],
            positions=archive["traj_positions"],
            orientations=archive["traj_orientations"],
        )
        return CsiTrace(
            data=archive["data"],
            times=archive["times"],
            array=array,
            trajectory=trajectory,
            tx_positions=archive["tx_positions"],
            carrier_wavelength=float(archive["carrier_wavelength"]),
        )
