"""Configuration of the RIM estimator — every knob in one place.

Defaults follow the paper's prototype: 200 Hz CSI, V ≈ 30 virtual antennas
(§6.2.7: "a number larger than 30 should suffice for a sampling rate of
200 Hz"), a lag window longer than the expected alignment delay (§3.2), and
the ~0.5 s short-period locality assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

KERNEL_BACKENDS = ("batched", "reference")
KERNEL_DTYPES = ("float64", "float32")
GUARD_POLICIES = ("off", "raise", "drop", "repair")

#: l_mv of §4.1 — self-TRRS comparison lag, seconds.
MOVEMENT_LAG_SECONDS = 0.1
#: Parabolic sub-sample lag refinement on/off.
REFINE_SUBSAMPLE = True
#: Minimum pre-detection prominence to survive.
PRE_DETECT_MIN_SCORE = 0.01
#: Below this quality no group is selected.
SELECTION_MIN_QUALITY = 0.05
#: Adjacent (ring) groups that must align simultaneously to declare
#: rotation (hexagon: 3 exist).
ROTATION_MIN_GROUPS = 3
#: Per-sample quality threshold for ring pairs — must sit above the
#: prominence a DP path extracts from pure noise (~0.13 with the default V).
ROTATION_QUALITY = 0.25
#: Strided pre-screen prominence a ring pair needs before the full
#: rotation check runs.
ROTATION_PRE_SCORE = 0.05
#: Add Δd to the integrated distance to reimburse the blind start-up
#: period (§5, "Minimum initial motion").
MIN_INITIAL_DISTANCE_COMPENSATION = True


@dataclass
class RimConfig:
    """Tunable parameters of :class:`repro.core.rim.Rim`.

    Attributes:
        max_lag: W — alignment-matrix half window, in samples.  Must exceed
            Δd / v_min · f_s; 100 samples @ 200 Hz covers speeds down to
            ~0.05 m/s with λ/2 separation (§3.2).
        virtual_window: V — number of virtual massive antennas averaged in
            Eqn. 4.
        sanitize: Remove the per-packet linear phase (STO/SFO) first.
        movement_threshold: Movement declared below this self-TRRS.
        movement_min_run: Debounce length (samples) for the movement mask.
        transition_weight: ω < 0 of the DP tracker (Eqn. 7).
        min_speed_lag: |lag| (samples) below which speed is not computed
            (lag quantization dominates; near-zero lags mean parallel or
            stationary geometry).
        pre_detect_stride: Row stride of the cheap pre-detection screen.
        pre_detect_keep: Maximum number of candidate groups kept.
        use_parallel_averaging: Average matrices of parallel isometric
            pairs before tracking (§4.2 optimization).
        quality_smoothing: Window (samples) for per-sample group quality.
        selection_hysteresis: Quality margin a challenger group needs.
        speed_smoothing: Median-filter window (samples) on speeds.
        fine_direction: Refine headings beyond the array's discrete
            direction grid by interpolating the peak strengths of flanking
            pair groups (the §7 "angle resolution" extension).
        interpolate_loss: Bridge short packet-loss gaps with phase-aligned
            linear interpolation before processing (§5, §7).
        interpolation_max_gap: Longest gap (packets) to bridge.
        guard_policy: Input-guard behavior in front of the pipeline
            (``repro.robustness.guard``): "repair" fixes what it can,
            "drop" discards offending packets, "raise" refuses bad input,
            "off" bypasses the guard entirely.
        guard_min_liveness: RX chains with a smaller finite-packet fraction
            are declared dead and masked out of the alignment vote.
        guard_max_drift: Fractional clock drift tolerated before timestamps
            are resampled onto the nominal grid.
        health_min_pairs: Minimum usable antenna pairs; below this the
            degradation policy holds the last good speed and marks heading
            unresolved instead of estimating from too little geometry.
        kernel_backend: Which TRRS kernel backend serves the alignment hot
            path (``repro.perf``): "batched" (default; BLAS band GEMMs
            over a shared row store, with row reuse) or "reference" (the
            serial per-pair oracle the tests compare against).  Both are
            numerically equivalent.
        kernel_dtype: Precision of the batched TRRS and DP kernels:
            "float64" (default; bit-compatible with the reference
            oracle) or "float32" (opt-in single precision within the
            error budget documented in ``docs/performance.md``).  The
            reference backend always computes in float64.
        stream_reuse: Let :class:`~repro.core.streaming.StreamingRim`
            reuse the previous block's TRRS rows instead of recomputing
            the context window (batched backend only; automatically
            invalidated when the guard repairs or resamples the context).
    """

    max_lag: int = 100
    virtual_window: int = 31
    sanitize: bool = True

    movement_threshold: float = 0.95
    movement_min_run: int = 10

    transition_weight: float = -2.0
    min_speed_lag: float = 1.5

    pre_detect_stride: int = 8
    pre_detect_keep: int = 4

    use_parallel_averaging: bool = True
    quality_smoothing: int = 31
    selection_hysteresis: float = 0.02

    speed_smoothing: int = 15

    fine_direction: bool = False

    interpolate_loss: bool = True
    interpolation_max_gap: int = 5

    guard_policy: str = "repair"
    guard_min_liveness: float = 0.2
    guard_max_drift: float = 0.01
    health_min_pairs: int = 1

    kernel_backend: str = "batched"
    kernel_dtype: str = "float64"
    stream_reuse: bool = True

    def __post_init__(self) -> None:
        if self.max_lag < 2:
            raise ValueError("max_lag must be >= 2")
        if self.virtual_window < 1:
            raise ValueError("virtual_window must be >= 1")
        if not 0 < self.movement_threshold < 1:
            raise ValueError("movement_threshold must be in (0, 1)")
        if self.movement_min_run < 1:
            raise ValueError("movement_min_run must be >= 1")
        if self.transition_weight >= 0:
            raise ValueError("transition_weight must be negative")
        if self.min_speed_lag < 1:
            raise ValueError("min_speed_lag must be >= 1")
        if self.pre_detect_stride < 1:
            raise ValueError("pre_detect_stride must be >= 1")
        if self.pre_detect_keep < 1:
            raise ValueError("pre_detect_keep must be >= 1")
        if self.quality_smoothing < 1:
            raise ValueError("quality_smoothing must be >= 1")
        if self.speed_smoothing < 1:
            raise ValueError("speed_smoothing must be >= 1")
        if self.interpolation_max_gap < 0:
            raise ValueError(
                f"interpolation_max_gap must be >= 0 (packets), "
                f"got {self.interpolation_max_gap}"
            )
        if self.guard_policy not in GUARD_POLICIES:
            raise ValueError(
                f"guard_policy must be one of {GUARD_POLICIES}, "
                f"got {self.guard_policy!r}"
            )
        if not 0.0 <= self.guard_min_liveness <= 1.0:
            raise ValueError("guard_min_liveness must be in [0, 1]")
        if self.guard_max_drift <= 0:
            raise ValueError("guard_max_drift must be positive")
        if self.health_min_pairs < 0:
            raise ValueError("health_min_pairs must be >= 0")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
        if self.kernel_dtype not in KERNEL_DTYPES:
            raise ValueError(
                f"kernel_dtype must be one of {KERNEL_DTYPES}, "
                f"got {self.kernel_dtype!r}"
            )
