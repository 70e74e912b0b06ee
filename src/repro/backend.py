"""The one kernel-backend switch, ``REPRO_KERNEL``, read only here.

The Sunflow planner and the PRT replan transactions have a compiled twin
in :mod:`repro._native`, and the baseline schedulers and the packet
simulator have numpy kernels (:mod:`repro.kernels`).  Each pair is
bitwise identical, so the backend changes speed, never results.

=============  ========================================================
unset/empty    ``native`` if the extension is built, else ``numpy``
``native``     the extension plus the numpy kernels; without it, the
               Python twins and one :class:`RuntimeWarning` per process
``numpy``      numpy kernels, pure-Python planner and PRT transactions
``python``     every layer on its pure-Python reference
other          :class:`ValueError` naming the accepted values
=============  ========================================================

The extension is accepted only when its ``LAYOUT_VERSION`` equals
:data:`repro.core.prt.PRT_LAYOUT_VERSION` and it exports every
:data:`ENTRY_POINTS` function.  Resolution is memoized on the raw
environment string: a dispatch costs one dict lookup, and
:func:`use_backend` still flips the backend between calls.  This module
imports no numpy, so the planner runs without it.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from functools import lru_cache
from types import ModuleType
from typing import Dict, Iterator, Optional, Tuple

ENV = "REPRO_KERNEL"

#: Accepted values besides unset/empty.
BACKENDS = ("numpy", "python", "native")

#: Functions the compiled extension must export to be used at all.
ENTRY_POINTS = (
    "schedule_demand",
    "schedule_demand_packed",
    "prt_rollback",
    "prt_replay",
    "transform_continuation",
)

#: Raw ``os.environ.get(ENV)`` -> (backend name, extension or None).
_resolved: Dict[Optional[str], Tuple[str, Optional[ModuleType]]] = {}

#: Whether the missing-extension warning was issued in this process.
_warned = False


@lru_cache(maxsize=None)
def _probe() -> Optional[ModuleType]:
    """The extension if it is built and layout-compatible, else None."""
    try:
        from repro import _native
    except ImportError:
        return None
    # Imported here because repro.core.prt imports this module.
    from repro.core.prt import PRT_LAYOUT_VERSION

    if getattr(_native, "LAYOUT_VERSION", None) != PRT_LAYOUT_VERSION:
        return None
    if not all(hasattr(_native, name) for name in ENTRY_POINTS):
        return None
    return _native


def _resolve(raw: Optional[str]) -> Tuple[str, Optional[ModuleType]]:
    global _warned
    name = (raw or "").strip().lower()
    if name and name not in BACKENDS:
        raise ValueError(
            f"{ENV}={name!r} is not a known kernel backend; "
            f"expected one of {BACKENDS} or unset"
        )
    if name in ("numpy", "python"):
        return name, None
    extension = _probe()
    if not name:
        return ("numpy", None) if extension is None else ("native", extension)
    if extension is None and not _warned:
        _warned = True
        warnings.warn(
            f"{ENV}=native requested but the repro._native extension is not "
            "available; using the pure-Python planner and PRT transactions "
            "(build it with `python setup.py build_ext --inplace` or by "
            "installing the package with a C compiler present)",
            RuntimeWarning,
            stacklevel=4,
        )
    return name, extension


def _current() -> Tuple[str, Optional[ModuleType]]:
    raw = os.environ.get(ENV)
    resolved = _resolved.get(raw)
    if resolved is None:
        resolved = _resolved[raw] = _resolve(raw)
    return resolved


def active_backend() -> str:
    """The selected backend: ``"native"``, ``"numpy"`` or ``"python"``.

    ``"native"`` also when requested without the extension (the numpy
    kernels still run; :func:`planner_backend` says which planner does).

    Raises:
        ValueError: if ``REPRO_KERNEL`` names an unknown backend.
    """
    return _current()[0]


def native_module() -> Optional[ModuleType]:
    """The extension when the selected backend runs it, else ``None``
    (the caller runs its pure-Python twin)."""
    return _current()[1]


def planner_backend() -> str:
    """Which planner and PRT-transaction loops run: ``"native"`` or
    ``"python"``."""
    return "python" if _current()[1] is None else "native"


def native_available() -> bool:
    """Whether the extension is built and accepted, selected or not."""
    return _probe() is not None


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily pin the backend (tests and benchmarks)."""
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; expected one of {BACKENDS}")
    previous = os.environ.get(ENV)
    os.environ[ENV] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV, None)
        else:
            os.environ[ENV] = previous
