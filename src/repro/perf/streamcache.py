"""Cross-block reuse of banded TRRS rows for :class:`StreamingRim`.

Every streaming block reprocesses the trailing context window (lag band W
plus virtual aperture V plus the movement lag), so without reuse the
alignment kernels recompute the context's TRRS cells on every block.  A
base-TRRS cell ``(t, l)`` depends on exactly two samples — ``t`` and
``t - l`` — so a cell computed in the previous block is still valid in
the next one whenever both samples are still in the buffer and their
normalized CFRs are unchanged.  :class:`StreamAlignmentCache` holds the
previous block's per-pair cell matrices (values + known mask) keyed by
the buffer's *global* sample offset; seeding shifts them into the new
block's row coordinates, drops cells whose partner sample fell off the
front of the buffer, and leaves only the genuinely new cells (the pushed
samples and the seam band reaching into them) for the kernel.

Validity is the caller's responsibility (``Rim`` enforces it): the cache
must be **cleared** whenever the block's retained samples may differ
from what the previous block saw —

* the guard repaired/dropped/deduplicated packets this block,
* the stream clock was resampled onto the nominal grid, or
* loss interpolation ran over a buffer containing lost packets (the
  interpolant near the seam changes as future samples arrive).

Under those rules a seeded cell is bit-identical to recomputing it, so
streamed outputs never depend on block history (enforced by
``tests/test_kernel_backends.py`` / ``tests/test_streaming.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class StreamAlignmentCache:
    """Previous-block base-TRRS cells, per antenna pair, globally indexed."""

    def __init__(self):
        self.offset = 0  # global sample index of row 0 of the stored arrays
        self.max_lag = None
        self.entries: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self.seeded_cells = 0  # cells served from cache over the stream's life
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self.entries)

    def reset(self) -> None:
        """Forget everything including position and lifetime stats.

        :meth:`clear` keeps the reuse statistics (it marks an
        invalidation mid-stream); ``reset`` is for starting a genuinely
        new stream in the same object.
        """
        self.offset = 0
        self.max_lag = None
        self.entries = {}
        self.seeded_cells = 0
        self.invalidations = 0

    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot (checkpoint/resume support).

        Entry arrays are copied, so the snapshot stays valid when the
        live cache moves on.
        """
        return {
            "offset": int(self.offset),
            "max_lag": self.max_lag,
            "seeded_cells": int(self.seeded_cells),
            "invalidations": int(self.invalidations),
            "entries": {
                key: (vals.copy(), known.copy())
                for key, (vals, known) in self.entries.items()
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output bit-exactly."""
        self.offset = int(state["offset"])  # type: ignore[arg-type]
        max_lag = state["max_lag"]
        self.max_lag = None if max_lag is None else int(max_lag)  # type: ignore[arg-type]
        self.seeded_cells = int(state["seeded_cells"])  # type: ignore[arg-type]
        self.invalidations = int(state["invalidations"])  # type: ignore[arg-type]
        def _vals(v) -> np.ndarray:
            # Preserve the kernel dtype across checkpoint round-trips:
            # float32 stores must resume with float32 cells.  Anything
            # else (e.g. lists from a hand-built state) lands on float64.
            arr = np.asarray(v)
            if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
                arr = arr.astype(np.float64)
            return arr

        self.entries = {
            (int(key[0]), int(key[1])): (
                _vals(vals),
                np.asarray(known, dtype=bool),
            )
            for key, (vals, known) in state["entries"].items()  # type: ignore[union-attr]
        }

    def clear(self) -> None:
        """Drop everything (guard repair / clock resample / config change)."""
        if self.entries:
            self.invalidations += 1
        self.entries = {}
        self.max_lag = None

    def seed(self, store, offset: int) -> None:
        """Copy still-valid cached cells into a fresh block's row store.

        Args:
            store: The block's :class:`~repro.perf.kernels.BaseRowStore`.
            offset: Global sample index of the block buffer's row 0.
        """
        if not self.entries:
            return
        shift = offset - self.offset
        if shift < 0 or self.max_lag != store.max_lag:
            self.clear()
            return
        # A kernel-dtype switch (float64 <-> float32 resume) invalidates
        # every cached cell: seeded values must be bit-identical to what
        # the new store would compute.
        if any(vals.dtype != store.dtype for vals, _ in self.entries.values()):
            self.clear()
            return
        w = store.max_lag
        for key, (vals, known) in self.entries.items():
            n = min(vals.shape[0] - shift, store.t)
            # Stores keep one band per pair, keyed i < j; checkpoints from
            # before that may still carry reversed keys.
            if n <= 0 or key[0] > key[1]:
                continue
            v_new, k_new = store.entry(key)
            v_new[:n] = vals[shift : shift + n]
            k_new[:n] = known[shift : shift + n]
            # A cached cell (r, lag) referenced partner sample r - lag; rows
            # dropped off the front of the buffer make small-r positive-lag
            # partners negative in the new coordinates — those cells are NaN
            # border cells now, so un-know them.
            for lag in range(1, w + 1):
                edge = min(lag, n)
                col = w + lag
                v_new[:edge, col] = np.nan
                k_new[:edge, col] = False
            self.seeded_cells += int(k_new[:n].sum())

    def capture(self, store, offset: int) -> None:
        """Snapshot a block's computed cells for the next block to seed from."""
        self.entries = {
            key: (store.values[key].copy(), store.known[key].copy())
            for key in store.values
        }
        self.offset = int(offset)
        self.max_lag = store.max_lag
