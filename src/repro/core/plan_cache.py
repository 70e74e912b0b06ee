"""Retired: the gap-signature cache of intra-Coflow plans.

Sunflow's replanner in :mod:`repro.sim.circuit_sim` plans every event
from scratch.  The plan cache that once sat beside it recorded 0 hits on
the headline replay and on K-core replays, and 2 in 756 lookups on a
guarded replay, so it was removed.

This module keeps the name :class:`PlanCache` importable, as a cache
that never stores a plan and never hits, for code that still looks it
up (the repository benchmark's per-layer trace wraps ``fetch`` and
``store``).  Nothing in ``repro`` constructs one.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.prt import PortReservationTable, Reservation


class PlanCache:
    """Deprecated: a plan cache that always misses."""

    def __init__(self) -> None:
        warnings.warn(
            "PlanCache is deprecated: the plan cache was removed, and "
            "the replanner plans every event from scratch",
            DeprecationWarning,
            stacklevel=2,
        )

    def fetch(
        self,
        prt: PortReservationTable,
        config_key: Tuple,
        coflow_id: int,
        demand_times: Mapping[Tuple[int, int], float],
        start_time: float,
    ) -> Tuple[None, None]:
        """Always a miss: ``(None, None)`` (no plan, no probe to store under)."""
        return None, None

    def store(
        self,
        probe: Optional[object],
        reservations: Sequence[Reservation],
        first_start: float,
    ) -> None:
        """Discards the plan."""


__all__ = ["PlanCache"]
