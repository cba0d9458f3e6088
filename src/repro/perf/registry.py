"""Kernel-backend registry: how the pipeline picks its TRRS kernels.

The alignment hot path (§3.2/§4.2 — by far the dominant cost; see
``perf.alignment_busy_s`` in ``perfbench/run.py --trace 1``) is served by
interchangeable *kernel backends*:

* ``reference`` — the original per-pair loops of
  :func:`repro.core.alignment.alignment_matrix`.  Slow, simple, and the
  numerical oracle every other backend is tested against.
* ``batched`` — BLAS band GEMMs over a shared per-trace row store that
  reuses pre-screen rows across pipeline stages and (in streaming) the
  previous block's rows across blocks (:mod:`repro.perf.kernels`).

Selection order:

1. ``RimConfig.kernel_backend`` when it is not ``"auto"``;
2. the ``RIM_KERNEL`` environment variable when set;
3. the default, ``"batched"``.

Kernel *precision* resolves the same way through
:func:`resolve_kernel_dtype`: ``RimConfig.kernel_dtype`` >
``RIM_KERNEL_DTYPE`` > ``"float64"``.  The float32 mode is opt-in —
see ``docs/performance.md`` for its error budget.

Third parties can plug in additional backends with
:func:`register_backend`; the registry is consulted at ``Rim``
construction time, so an unknown name fails fast with the list of
available backends.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

RIM_KERNEL_ENV = "RIM_KERNEL"
RIM_KERNEL_DTYPE_ENV = "RIM_KERNEL_DTYPE"
DEFAULT_BACKEND = "batched"
DEFAULT_KERNEL_DTYPE = "float64"
KERNEL_DTYPES = ("float64", "float32")

_REGISTRY: Dict[str, Callable] = {}


def register_backend(name: str, factory: Callable) -> None:
    """Register a kernel backend under ``name``.

    Args:
        name: Backend identifier (what ``RimConfig.kernel_backend`` and
            ``RIM_KERNEL`` select).
        factory: ``factory(config) -> KernelBackend`` — called with the
            :class:`~repro.core.config.RimConfig` so backends can read
            knobs like ``kernel_threads``.
    """
    if not name or name == "auto":
        raise ValueError(f"invalid backend name {name!r}")
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Sorted names of all registered kernel backends."""
    return sorted(_REGISTRY)


def resolve_backend_name(config) -> str:
    """The backend name the given config resolves to (without building it)."""
    name = getattr(config, "kernel_backend", "auto")
    if name != "auto":
        return name
    return os.environ.get(RIM_KERNEL_ENV) or DEFAULT_BACKEND


def resolve_kernel_dtype(config) -> str:
    """The kernel precision the given config resolves to.

    ``RimConfig.kernel_dtype`` wins when not ``"auto"``, then the
    ``RIM_KERNEL_DTYPE`` environment variable, then ``"float64"``.

    Raises:
        ValueError: When the resolved name is not a supported precision.
    """
    name = getattr(config, "kernel_dtype", "auto")
    if name == "auto":
        name = os.environ.get(RIM_KERNEL_DTYPE_ENV) or DEFAULT_KERNEL_DTYPE
    if name not in KERNEL_DTYPES:
        raise ValueError(
            f"unknown kernel dtype {name!r}; supported: "
            f"{', '.join(KERNEL_DTYPES)} "
            f"(set RimConfig.kernel_dtype or ${RIM_KERNEL_DTYPE_ENV})"
        )
    return name


def get_backend(config):
    """Build the kernel backend selected by ``config`` (see module docs).

    Raises:
        ValueError: When the resolved name is not registered.
    """
    name = resolve_backend_name(config)
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} "
            f"(set RimConfig.kernel_backend or ${RIM_KERNEL_ENV})"
        )
    return factory(config)
