"""The one kernel-backend switch, ``REPRO_KERNEL``, read only here.

The Sunflow planner and the shortest-first ordering scan
(``CoflowView.bottleneck``) have compiled twins in :mod:`repro._native`;
each pair is bitwise identical, so the backend changes speed, never
results.  The switch picks only those two: the baseline schedulers and
the packet simulator always run their numpy kernels
(:mod:`repro.kernels`), whose pure-Python twins are test oracles.

=============  ========================================================
unset/empty    ``native`` if the extension is built, else ``python``
``native``     the extension; without it, the Python loops and one
               :class:`RuntimeWarning` per process
``python``     the pure-Python planner and scan
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
BACKENDS = ("python", "native")

#: The compiled extension's planner and ordering-scan functions; a build
#: without either is not used at all.
ENTRY_POINTS = ("schedule_many_packed", "port_bottleneck")

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
    if name == "python":
        return name, None
    extension = _probe()
    if not name:
        return ("python", None) if extension is None else ("native", extension)
    if extension is None and not _warned:
        _warned = True
        warnings.warn(
            f"{ENV}=native requested but the repro._native extension is not "
            "available; using the pure-Python planner (build it with "
            "`python setup.py build_ext --inplace` or by installing the "
            "package with a C compiler present)",
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
    """The selected backend: ``"native"`` or ``"python"``.

    ``"native"`` also when requested without the extension
    (:func:`planner_backend` says which planner runs).

    Raises:
        ValueError: if ``REPRO_KERNEL`` names an unknown backend.
    """
    return _current()[0]


def native_module() -> Optional[ModuleType]:
    """The extension when the selected backend runs it, else ``None``
    (the caller runs its pure-Python twin)."""
    return _current()[1]


def planner_backend() -> str:
    """Which planner loop runs: ``"native"`` or ``"python"``."""
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
