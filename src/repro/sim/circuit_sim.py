"""Circuit-switched network simulation (paper §5.1).

Flow-level, trace-driven simulation of the optical circuit switched
network under the not-all-stop model, in the paper's two evaluation modes:

* **intra-Coflow** (§5.3) — Coflows are served back-to-back ("a Coflow
  arrives only after the previous one is finished"), so each Coflow is
  scheduled in isolation and its CCT is simply the schedule makespan.
  Works for Sunflow and for the assignment-based baselines.
* **inter-Coflow** (§5.4) — detailed trace replay with arrival times.
  Like Varys, the simulator reschedules *only* at Coflow arrivals and
  completions: at each event the remaining demand of every active Coflow
  is re-planned through ``InterCoflow`` by the
  :class:`~repro.core.replan.InterCoflowPlanner` the §6 controller also
  uses (priority order given by a :class:`~repro.core.policies.Policy`),
  the plan is executed until the next event, and transfer progress is
  banked.  Circuits actively transmitting at a reschedule keep their
  configuration (no second ``δ``) when the new plan reuses them
  immediately; circuits caught mid-setup carry only their *remaining*
  setup time into the new plan.

An optional :class:`~repro.core.starvation.StarvationGuard` carves the
``(T+τ)`` shared slices of §4.2 into the plan; during a ``τ`` slice every
active Coflow with demand on an enabled circuit shares its bandwidth
equally.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.demand import PackedDemand
from repro.core.policies import Policy
from repro.core.prt import TIME_EPS
from repro.core.replan import ActiveCoflow, InterCoflowPlanner
from repro.core.starvation import StarvationGuard
from repro.core.sunflow import ReservationOrder, SunflowScheduler
from repro.perf import PerfCounters
from repro.schedulers.base import AssignmentScheduler
from repro.sim.assignment_exec import SwitchModel, execute_assignments
from repro.sim.engine import run_replay
from repro.sim.results import SimulationReport, make_record
from repro.units import DEFAULT_BANDWIDTH, DEFAULT_DELTA

Circuit = Tuple[int, int]


# ----------------------------------------------------------------------
# Intra-Coflow mode (§5.3): one Coflow in the network at a time
# ----------------------------------------------------------------------
def simulate_intra_sunflow(
    trace: CoflowTrace,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
    rng: Optional[random.Random] = None,
) -> SimulationReport:
    """Back-to-back Sunflow service: CCT per Coflow is its schedule makespan."""
    scheduler = SunflowScheduler(delta=delta, order=order, rng=rng)
    report = SimulationReport("sunflow", bandwidth_bps, delta)
    for coflow in trace:
        schedule = scheduler.schedule_coflow(coflow, bandwidth_bps, start_time=0.0)
        report.add(
            make_record(
                coflow,
                completion_time=coflow.arrival_time + schedule.makespan,
                bandwidth_bps=bandwidth_bps,
                delta=delta,
                switching_count=schedule.num_setups,
            )
        )
    return report


def simulate_intra_assignment(
    trace: CoflowTrace,
    scheduler: AssignmentScheduler,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    model: SwitchModel = SwitchModel.NOT_ALL_STOP,
) -> SimulationReport:
    """Back-to-back service by an assignment-based baseline (Solstice/TMS/Edmond)."""
    report = SimulationReport(scheduler.name, bandwidth_bps, delta)
    for coflow in trace:
        demand = coflow.processing_times(bandwidth_bps)
        schedule = scheduler.schedule(demand, trace.num_ports)
        execution = execute_assignments(schedule, demand, delta, model=model)
        if not execution.finished:
            raise RuntimeError(
                f"{scheduler.name} schedule does not cover coflow {coflow.coflow_id}"
            )
        report.add(
            make_record(
                coflow,
                completion_time=execution.completion_time + coflow.arrival_time,
                bandwidth_bps=bandwidth_bps,
                delta=delta,
                switching_count=execution.switching_count,
            )
        )
    return report


# ----------------------------------------------------------------------
# Inter-Coflow mode (§5.4): trace replay with arrivals
# ----------------------------------------------------------------------
class InterCoflowSimulator:
    """Event-driven replay of a trace under Sunflow inter-Coflow scheduling.

    Args:
        trace: the Coflows with their arrival times.
        bandwidth_bps: link rate ``B``.
        delta: reconfiguration delay ``δ``.
        policy: inter-Coflow priority policy (shortest-Coflow-first by
            default, as in the paper's evaluation).
        order: intra-Coflow reservation consideration order.
        guard: optional starvation guard; its ``τ`` slices are reserved in
            every plan and serve all Coflows on the enabled circuits.
        priority_classes: operator-assigned classes per Coflow id (lower is
            more important); defaults to a single class.
        perf: counter sink for events / plans computed / reservations
            made / wall time per phase; a fresh
            :class:`~repro.perf.PerfCounters` is created if omitted and
            exposed as :attr:`perf`.
    """

    def __init__(
        self,
        trace: CoflowTrace,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        delta: float = DEFAULT_DELTA,
        policy: Optional[Policy] = None,
        order: ReservationOrder = ReservationOrder.ORDERED_PORT,
        guard: Optional[StarvationGuard] = None,
        priority_classes: Optional[Dict[int, int]] = None,
        rng: Optional[random.Random] = None,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        self.trace = trace.sorted_by_arrival()
        self.bandwidth_bps = bandwidth_bps
        self.delta = delta
        self.guard = guard
        self.perf = perf if perf is not None else PerfCounters()
        #: The replan step, shared with the §6 controller; it charges its
        #: counters and ``plan.*`` sub-timers to :attr:`perf`.
        self.planner = InterCoflowPlanner(
            SunflowScheduler(delta=delta, order=order, rng=rng),
            policy=policy,
            guard=guard,
            priority_classes=priority_classes,
            perf=self.perf,
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Replay the whole trace; returns one record per Coflow."""
        self.begin_run()
        self.event_times = run_replay(self, list(self.trace))
        return self.finish_run()

    def begin_run(self, report=None) -> None:
        """Reset per-run state; the ReplayHost hooks are live afterwards.

        Split from :meth:`run` so a composite host (the K-core simulator)
        can drive several per-core instances through one shared
        :func:`~repro.sim.engine.run_replay` loop.

        Args:
            report: optional completion-record sink (anything with
                ``add(record)``).  The streaming replay passes a
                bounded-memory :class:`~repro.sim.streaming.StreamingReport`
                here; by default a full in-memory
                :class:`~repro.sim.results.SimulationReport` is created.
        """
        if report is None:
            report = SimulationReport("sunflow", self.bandwidth_bps, self.delta)
        self._report = report
        self._active = {}
        self._schedules = {}

    def finish_run(self) -> SimulationReport:
        """End the run :meth:`begin_run` started; returns its report."""
        return self._report

    # ------------------------------------------------------------------
    # ReplayHost hooks (driven by repro.sim.engine.run_replay)
    # ------------------------------------------------------------------
    def has_active(self) -> bool:
        return bool(self._active)

    def admit(self, coflow: Coflow, now: float) -> None:
        self._active[coflow.coflow_id] = ActiveCoflow(
            coflow=coflow,
            remaining=PackedDemand(coflow.processing_times(self.bandwidth_bps)),
        )

    def plan(self, now: float, next_arrival: float) -> float:
        perf = self.perf
        perf.inc("events")
        with perf.timer("plan"):
            schedules = self._schedules = self.planner.plan(self._active, now)
        event_time = min(
            next_arrival, min(plan.completion_time for plan in schedules.values())
        )
        if self.guard is not None:
            # Wake at the next guard-slice end inside the horizon so
            # Coflows drained by shared guard service complete promptly.
            for window in self.guard.windows_between(now, event_time):
                if window.end > now + TIME_EPS:
                    event_time = min(event_time, window.end)
                    break
        return event_time

    def advance(self, now: float, event_time: float) -> None:
        perf = self.perf
        with perf.timer("advance"):
            self._advance(self._active, self._schedules, now, event_time)
        with perf.timer("record"):
            self._record_completions(self._active, self._report, event_time)

    # ------------------------------------------------------------------
    def _advance(
        self,
        active: Dict[int, ActiveCoflow],
        schedules,
        start: float,
        end: float,
    ) -> None:
        """Bank transfer progress from the plan over ``[start, end)``.

        Every plan in ``schedules`` was computed at ``start``, so its reservations all begin at or after ``start``;
        the bisect visits only those beginning before ``end`` instead of
        scanning the whole plan.
        """
        for cid, schedule in schedules.items():
            state = active[cid]
            established: Dict[Circuit, Tuple[float, float]] = {}
            reservations = schedule.reservations
            cutoff = schedule.index_at_or_after(end)
            for index in range(cutoff):
                reservation = reservations[index]
                served = reservation.transmitted_before(end)
                circuit = reservation.circuit
                if served > 0:
                    left = state.remaining.get(circuit, 0.0) - served
                    state.remaining[circuit] = max(0.0, left)
                # A reconfiguration that began before the event counts as a
                # switching event even if the plan is later discarded.
                if reservation.setup > 0:
                    state.switching_count += 1
                if end < reservation.end - TIME_EPS:
                    # Circuit is up (or mid-setup) at the event instant; a
                    # replan reusing it immediately pays only the remaining
                    # setup time, and anchoring the planned end makes the
                    # continuation reproducible bit-for-bit.
                    established[circuit] = (
                        max(0.0, reservation.transmit_start - end),
                        reservation.end,
                    )
            state.established = established
        if self.guard is not None:
            self._apply_guard_service(active, start, end)

    def _apply_guard_service(
        self, active: Dict[int, ActiveCoflow], start: float, end: float
    ) -> None:
        """Fluid shared service during the guard's ``τ`` slices in [start, end)."""
        assert self.guard is not None
        for window in self.guard.windows_between(start, end):
            transmit_start = window.start + self.guard.delta
            overlap = min(end, window.end) - max(start, transmit_start)
            if overlap <= TIME_EPS:
                continue
            for src, dst in self.guard.assignments[window.assignment_index]:
                sharers = [
                    state
                    for state in active.values()
                    if state.remaining.get((src, dst), 0.0) > TIME_EPS
                ]
                if not sharers:
                    continue
                share = overlap / len(sharers)
                for state in sharers:
                    left = state.remaining[(src, dst)] - share
                    state.remaining[(src, dst)] = max(0.0, left)

    # ------------------------------------------------------------------
    def _record_completions(
        self, active: Dict[int, ActiveCoflow], report: SimulationReport, now: float
    ) -> None:
        finished = [cid for cid, state in active.items() if state.done]
        for cid in finished:
            state = active.pop(cid)
            report.add(
                make_record(
                    state.coflow,
                    completion_time=now,
                    bandwidth_bps=self.bandwidth_bps,
                    delta=self.delta,
                    switching_count=state.switching_count,
                )
            )


def simulate_inter_sunflow(
    trace: CoflowTrace,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    policy: Optional[Policy] = None,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
    guard: Optional[StarvationGuard] = None,
    priority_classes: Optional[Dict[int, int]] = None,
    rng: Optional[random.Random] = None,
) -> SimulationReport:
    """One-call trace replay under Sunflow inter-Coflow scheduling."""
    simulator = InterCoflowSimulator(
        trace,
        bandwidth_bps=bandwidth_bps,
        delta=delta,
        policy=policy,
        order=order,
        guard=guard,
        priority_classes=priority_classes,
        rng=rng,
    )
    return simulator.run()
