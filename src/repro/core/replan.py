"""One inter-Coflow replan step (Algorithm 1 InterCoflow, §4.2 and §6).

Sunflow replans only at Coflow arrivals and completions, and each replan
is one step: InterCoflow over the remaining demand of every active
Coflow, in the policy's priority order, on one fresh Port Reservation
Table.  :class:`InterCoflowPlanner` is that step.  Both hosts call it:
the flow-level simulator (:class:`~repro.sim.circuit_sim.InterCoflowSimulator`)
banks transfer progress between calls, and the §6 controller
(:class:`~repro.system.controller.SunflowController`) wraps each call in
command latency and in-flight accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.coflow import Coflow
from repro.core.policies import CoflowView, Policy, ShortestFirst
from repro.core.prt import PortReservationTable, TIME_EPS
from repro.core.starvation import StarvationGuard
from repro.core.sunflow import CoflowSchedule, SunflowScheduler
from repro.perf import PerfCounters

Circuit = Tuple[int, int]


@dataclass
class ActiveCoflow:
    """Host-side mutable state of one admitted, unfinished Coflow."""

    coflow: Coflow
    #: ``{circuit: processing seconds}`` the next plan must serve.
    remaining: Dict[Circuit, float]
    #: Circuits configured at the next plan's origin, as ``circuit ->
    #: (remaining setup seconds, anchor end or None)``: 0 remaining setup
    #: means the circuit is live, and an anchor is the absolute end its
    #: continuation was planned to reach (lets a replan reproduce the same
    #: reservation bit for bit).
    established: Dict[Circuit, Tuple[float, Optional[float]]] = field(
        default_factory=dict
    )
    #: Circuit establishments (setup-paying reservations) begun so far.
    switching_count: int = 0

    @property
    def done(self) -> bool:
        return all(p <= TIME_EPS for p in self.remaining.values())


class InterCoflowPlanner:
    """Plans every active Coflow from scratch at each call.

    Args:
        scheduler: the Algorithm 1 planner.  Its ``perf`` sink is pointed
            at :attr:`perf`, so the ``plan.pack`` / ``plan.kernel``
            sub-timers land next to this planner's ``plan.order`` timer
            and counters.
        policy: inter-Coflow priority policy (shortest-Coflow-first by
            default, as in the paper's evaluation).
        guard: optional starvation guard; its ``τ`` slices are reserved in
            every plan.
        priority_classes: operator-assigned classes per Coflow id (lower is
            more important); defaults to a single class.
        perf: sink for the ``plans_computed`` / ``reservations_made``
            counters; a fresh :class:`~repro.perf.PerfCounters` if omitted.
    """

    def __init__(
        self,
        scheduler: SunflowScheduler,
        policy: Optional[Policy] = None,
        guard: Optional[StarvationGuard] = None,
        priority_classes: Optional[Dict[int, int]] = None,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        self.scheduler = scheduler
        self.policy = policy if policy is not None else ShortestFirst()
        self.guard = guard
        self.priority_classes = priority_classes or {}
        self.perf = perf if perf is not None else PerfCounters()
        scheduler.perf = self.perf

    def plan(
        self, active: Mapping[int, ActiveCoflow], now: float
    ) -> Dict[int, CoflowSchedule]:
        """Run InterCoflow over the remaining demand of ``active``.

        The active Coflows are planned in priority order on a fresh PRT
        starting at ``now``, each one's established circuits continued
        without a new ``δ``.
        """
        perf = self.perf
        t0 = perf_counter()
        ordered = self._ordered_ids(active)
        perf.add_time("plan.order", perf_counter() - t0)
        demands = [(cid, active[cid].remaining) for cid in ordered]
        established = {cid: state.established for cid, state in active.items()}

        guard = self.guard
        horizon = self._guard_horizon(active, now)
        while True:
            prt = PortReservationTable()
            if guard is not None:
                guard.reserve_windows(prt, now, horizon)
            prt, schedules = self.scheduler.schedule_many(
                demands, start_time=now, prt=prt, established=established
            )
            if guard is None:
                break
            latest = max(s.completion_time for s in schedules.values())
            if latest <= horizon - guard.cycle:
                break
            # Plan ran past the reserved guard region; extend and retry so
            # no plan escapes the guard's periodic blackouts.
            horizon = latest + 2 * guard.max_service_gap
        perf.inc("plans_computed", len(schedules))
        perf.inc(
            "reservations_made",
            sum(len(s.reservations) for s in schedules.values()),
        )
        return schedules

    # ------------------------------------------------------------------
    def _ordered_ids(self, active: Mapping[int, ActiveCoflow]) -> List[int]:
        """Active Coflow ids in the policy's priority order.

        One fresh :class:`~repro.core.policies.CoflowView` per active
        Coflow over the demand it holds now, so the order always reflects
        the latest writes to ``remaining``; the policy reads each view's
        bottleneck at most once.
        """
        priority_classes = self.priority_classes
        views = [
            CoflowView(
                coflow_id=cid,
                arrival_time=state.coflow.arrival_time,
                remaining_times=state.remaining,
                priority_class=priority_classes.get(cid, 0),
            )
            for cid, state in active.items()
        ]
        return [view.coflow_id for view in self.policy.order(views)]

    def _guard_horizon(self, active: Mapping[int, ActiveCoflow], now: float) -> float:
        if self.guard is None:
            return now
        delta = self.scheduler.delta
        serial = sum(
            sum(state.remaining.values()) + len(state.remaining) * delta
            for state in active.values()
        )
        inflation = self.guard.cycle / self.guard.period
        return now + serial * (1.0 + inflation) + 2 * self.guard.max_service_gap
