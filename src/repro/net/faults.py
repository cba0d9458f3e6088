"""Deterministic wire-level fault injection for the network front-end.

:class:`NetFaultPlan` is the transport-layer sibling of
:class:`repro.robustness.FaultPlan`: where that plan perturbs CSI
*contents* (dead chains, NaN bursts, clock faults), this one perturbs
*delivery* — frames dropped, duplicated, reordered, corrupted in flight,
delayed, or the connection severed mid-stream.  It is applied by the
client (:class:`repro.net.client.NetClient`) between framing and the
socket, so the server under test sees genuinely damaged wire traffic.

Every decision is a pure function of ``(seed, seq)``, which is what makes
reconnect-resume testable: when the client resends a window after a
reconnect, each frame is re-faulted exactly as before, so the set of
sequence numbers that can ever reach the server —
:meth:`NetFaultPlan.delivered_seqs` — is known in advance and the
delivered stream can be compared bit-for-bit against an in-process
baseline fed exactly those samples.

Fault classes (all independent per sample, except reordering):

* ``drop_fraction`` — the frame is never written.
* ``duplicate_fraction`` — the frame is written twice back-to-back.
* ``reorder_fraction`` — adjacent disjoint swaps: sample ``2k`` is held
  and written after ``2k+1``.
* ``corrupt_fraction`` — one payload byte is flipped; the server's frame
  CRC catches it and drops the frame (counted, never parsed).
* ``delay_fraction`` / ``delay_s`` — the frame is written after a pause.
* ``disconnect_after`` — after that many DATA frames have been written
  the client hard-closes the socket once, forcing a reconnect-resume.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import FrozenSet, List, NamedTuple, Tuple

import numpy as np


class SampleFaults(NamedTuple):
    """Every fault decision a :class:`NetFaultPlan` makes for one seq."""

    drop: bool
    duplicate: bool
    corrupt: bool
    delay: bool
    swap: bool  # delivered after its successor (decided at even seqs only)


@dataclass(frozen=True)
class NetFaultPlan:
    """A composable, seedable description of wire faults.

    Attributes:
        seed: RNG seed; decisions are pure functions of ``(seed, seq)``,
            so resending a sample re-applies the same faults.
        drop_fraction: Fraction of DATA frames never written.
        duplicate_fraction: Fraction of DATA frames written twice.
        reorder_fraction: Fraction of even-seq DATA frames swapped with
            their successor (adjacent disjoint swaps).
        corrupt_fraction: Fraction of DATA frames with one payload byte
            flipped in flight (dropped by the server's CRC).
        delay_fraction: Fraction of DATA frames written after a pause.
        delay_s: Length of that pause, seconds.
        disconnect_after: Hard-close the socket after this many DATA
            frames have been written (once per run); ``None`` disables.
    """

    seed: int = 0
    drop_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    reorder_fraction: float = 0.0
    corrupt_fraction: float = 0.0
    delay_fraction: float = 0.0
    delay_s: float = 0.005
    disconnect_after: "int | None" = None

    def __post_init__(self) -> None:
        for name in (
            "drop_fraction",
            "duplicate_fraction",
            "reorder_fraction",
            "corrupt_fraction",
            "delay_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.disconnect_after is not None and self.disconnect_after < 1:
            raise ValueError("disconnect_after must be >= 1 DATA frame")

    @property
    def is_clean(self) -> bool:
        """True when the plan injects nothing."""
        return (
            self.drop_fraction == 0.0
            and self.duplicate_fraction == 0.0
            and self.reorder_fraction == 0.0
            and self.corrupt_fraction == 0.0
            and self.delay_fraction == 0.0
            and self.disconnect_after is None
        )

    # -- per-sample decisions ----------------------------------------------

    def decisions(self, seq: int) -> SampleFaults:
        """All five decisions for sample ``seq``, stable across processes
        and resends.

        They come from five uniform draws (drop, dup, corrupt, delay,
        reorder) of one generator seeded with ``(seed, seq)``.  Building
        that generator is what a decision costs, so callers that need
        several decisions for one seq take them all from one call.
        """
        rng = np.random.default_rng((0x52494D4E, self.seed, seq))
        drop, dup, corrupt, delay, reorder = rng.uniform(size=5).tolist()
        return SampleFaults(
            drop=drop < self.drop_fraction,
            duplicate=dup < self.duplicate_fraction,
            corrupt=corrupt < self.corrupt_fraction,
            delay=delay < self.delay_fraction,
            swap=seq % 2 == 0 and reorder < self.reorder_fraction,
        )

    def drops(self, seq: int) -> bool:
        return self.decisions(seq).drop

    def duplicates(self, seq: int) -> bool:
        return self.decisions(seq).duplicate

    def corrupts(self, seq: int) -> bool:
        return self.decisions(seq).corrupt

    def delays(self, seq: int) -> bool:
        return self.decisions(seq).delay

    def swaps_with_next(self, seq: int) -> bool:
        """True when samples ``seq`` and ``seq+1`` are delivered swapped.

        Decided only at even seqs, so swaps are disjoint by construction.
        """
        return self.decisions(seq).swap

    def corrupt_bytes(self, seq: int, frame: bytes) -> bytes:
        """Flip one payload byte of an encoded frame (header left intact
        so the damage is a CRC failure, not a resync)."""
        from repro.net.framing import HEADER_SIZE

        if len(frame) <= HEADER_SIZE:
            at = len(frame) - 1  # empty payload: flip inside the CRC field
        else:
            rng = np.random.default_rng((0xC0584255, self.seed, seq))
            at = HEADER_SIZE + int(rng.integers(0, len(frame) - HEADER_SIZE))
        flipped = bytearray(frame)
        flipped[at] ^= 0x5A
        return bytes(flipped)

    def delivered_seqs(self, n: int) -> FrozenSet[int]:
        """Seqs (of ``range(n)``) that can ever reach the session.

        A sample is undeliverable when the plan drops it or corrupts it
        (corruption survives resends because decisions are per-seq
        deterministic); everything else — duplicated, reordered, delayed,
        interrupted by a disconnect — is delivered eventually.
        """
        faults = map(self.decisions, range(n))
        return frozenset(
            seq for seq, f in enumerate(faults) if not (f.drop or f.corrupt)
        )

    def expected_repairs(self, n: int) -> dict:
        """Fault counts the server should account for over ``range(n)``.

        Keys mirror the ``net_*`` entries the server folds into
        ``HealthReport.repairs``.  Gap accounting is conservative: every
        undeliverable seq below the delivered high-water mark must
        eventually be skipped.
        """
        faults = [self.decisions(seq) for seq in range(n)]
        delivered = [not (f.drop or f.corrupt) for f in faults]
        high = max((seq for seq in range(n) if delivered[seq]), default=-1)
        return {
            "net_crc_dropped": sum(f.corrupt for f in faults),
            "net_gap_samples": delivered[: high + 1].count(False),
            "net_duplicate_dropped": sum(
                f.duplicate for f, ok in zip(faults, delivered) if ok
            ),
        }

    # -- parsing -----------------------------------------------------------

    _SPEC_ALIASES = {
        "drop": "drop_fraction",
        "duplicate": "duplicate_fraction",
        "dup": "duplicate_fraction",
        "reorder": "reorder_fraction",
        "corrupt": "corrupt_fraction",
        "delay": "delay_fraction",
        "disconnect": "disconnect_after",
    }

    @classmethod
    def from_spec(cls, spec: str) -> "NetFaultPlan":
        """Parse a compact CLI spec like ``"drop=0.05,reorder=0.1,disconnect=200"``.

        Keys are field names or their short aliases (``drop``, ``dup``/
        ``duplicate``, ``reorder``, ``corrupt``, ``delay``,
        ``disconnect``).
        """
        spec = (spec or "").strip()
        if not spec:
            return cls()
        field_names = {f.name for f in fields(cls)}
        kwargs: dict = {}
        for item in spec.split(","):
            if "=" not in item:
                raise ValueError(
                    f"malformed net fault spec item {item!r} (want key=value)"
                )
            key, value = (part.strip() for part in item.split("=", 1))
            name = cls._SPEC_ALIASES.get(key, key)
            if name not in field_names:
                known = sorted(field_names | set(cls._SPEC_ALIASES))
                raise ValueError(
                    f"unknown net fault spec key {key!r}; known keys: "
                    f"{', '.join(known)}"
                )
            if name in ("seed", "disconnect_after"):
                kwargs[name] = int(value)
            else:
                kwargs[name] = float(value)
        return cls(**kwargs)


class WireFaultInjector:
    """Applies a :class:`NetFaultPlan` to an outgoing DATA frame stream.

    Sits between the client's framing and its socket writes.  Stateful
    only for reordering (one held frame) and the single mid-stream
    disconnect; everything else is the plan's pure per-seq decisions.
    """

    def __init__(self, plan: NetFaultPlan):
        self.plan = plan
        # (decisions, frame) of an even seq held back for its swap.
        self._held: "Tuple[SampleFaults, bytes] | None" = None
        self._sent_data = 0
        self._disconnected_once = False
        self.n_dropped = 0
        self.n_duplicated = 0
        self.n_corrupted = 0
        self.n_reordered = 0
        self.n_delayed = 0

    def reset_stream(self) -> None:
        """Forget the in-flight swap (the transport died under it)."""
        self._held = None

    def admit(self, seq: int, frame: bytes) -> List[Tuple[bytes, float]]:
        """Fault one DATA frame; returns ``(bytes, pre-write delay)`` writes."""
        plan = self.plan
        if plan.is_clean:
            return [(frame, 0.0)]
        faults = plan.decisions(seq)
        out: List[Tuple[bytes, float]] = []

        if faults.drop:
            self.n_dropped += 1
            frame = b""
        elif faults.corrupt:
            self.n_corrupted += 1
            frame = plan.corrupt_bytes(seq, frame)

        delay = plan.delay_s if (frame and faults.delay) else 0.0
        if delay:
            self.n_delayed += 1

        if self._held is not None:
            # ``seq`` is the successor of the held frame: emit swapped.
            held_faults, held_frame = self._held
            self._held = None
            if frame:
                out.append((frame, delay))
            if held_frame:
                out.append((held_frame, 0.0))
            if frame and held_frame:
                self.n_reordered += 1
            if frame and faults.duplicate:
                self.n_duplicated += 1
                out.append((frame, 0.0))
            if held_frame and held_faults.duplicate:
                self.n_duplicated += 1
                out.append((held_frame, 0.0))
            return out

        if faults.swap:
            self._held = (faults, frame)
            return []

        if frame:
            out.append((frame, delay))
            if faults.duplicate:
                self.n_duplicated += 1
                out.append((frame, 0.0))
        return out

    def flush(self) -> List[Tuple[bytes, float]]:
        """Release a swap held at end-of-stream (no successor is coming)."""
        if self._held is None:
            return []
        held_faults, held_frame = self._held
        self._held = None
        if not held_frame:
            return []
        out = [(held_frame, 0.0)]
        if held_faults.duplicate:
            self.n_duplicated += 1
            out.append((held_frame, 0.0))
        return out

    def should_disconnect(self) -> bool:
        """Count one written DATA frame; True when it is time to sever."""
        if self.plan.disconnect_after is None or self._disconnected_once:
            return False
        self._sent_data += 1
        if self._sent_data >= self.plan.disconnect_after:
            self._disconnected_once = True
            return True
        return False

    def counters(self) -> dict:
        return {
            "dropped": self.n_dropped,
            "duplicated": self.n_duplicated,
            "corrupted": self.n_corrupted,
            "reordered": self.n_reordered,
            "delayed": self.n_delayed,
        }
