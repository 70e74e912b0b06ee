"""Centralized Sunflow controller (paper §6).

The controller is the system's brain: it collects Coflow registrations,
maintains the authoritative remaining-demand ledger from agents' transfer
reports, replans at Coflow arrivals and completions (plus when a report
reveals a shortfall), and issues circuit commands *just in time* — each
``SetupCircuit`` leaves ``command_latency`` before its reservation
starts, so replanning simply stops issuing a stale plan's remaining
commands.

Each replan is the flow-level simulator's step,
:class:`~repro.core.replan.InterCoflowPlanner`, run from the replan's
effective instant; the controller adds only what is its own.  Every
in-flight reservation is torn down at that instant (unless the new plan
reproduces it bit for bit), circuits that keep serving the same flow are
continued without a new ``δ`` (the ``established`` mechanism), and a
plan version number invalidates queued issue ticks from superseded
plans — the standard lazy cancellation pattern for event-driven control
loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.policies import Policy
from repro.core.prt import Reservation, TIME_EPS
from repro.core.replan import ActiveCoflow, InterCoflowPlanner
from repro.core.sunflow import SunflowScheduler
from repro.sim.results import SimulationReport, make_record
from repro.system.messages import (
    RegisterCoflow,
    SetupCircuit,
    TeardownCircuit,
    TransferReport,
)

Circuit = Tuple[int, int]


@dataclass
class IssueTick:
    """Internal self-message: time to issue a planned reservation."""

    plan_version: int
    reservation: Reservation


@dataclass
class ControllerOutput:
    """What one controller step wants the runner to do."""

    #: Setup commands to deliver to the switch (after command latency).
    commands: List[SetupCircuit] = field(default_factory=list)
    #: Teardown commands to deliver to the switch (after command latency).
    teardowns: List[TeardownCircuit] = field(default_factory=list)
    #: Future issue ticks to schedule back to the controller.
    ticks: List[Tuple[float, IssueTick]] = field(default_factory=list)


@dataclass
class _CoflowLedger(ActiveCoflow):
    """Controller-side view of one active Coflow; ``remaining`` is rebuilt
    in place at every replan from ``total_left`` minus what is in flight."""

    #: Demand not yet reported transmitted, in processing seconds.
    total_left: Dict[Circuit, float] = field(default_factory=dict)
    #: Latest network-level flow finish seen so far.
    last_finish: float = 0.0
    #: Extra seconds to over-reserve per circuit after a delivery shortfall
    #: (e.g. a late circuit-live signal ate the window head).  Doubles on
    #: every repeated shortfall so retries always converge.
    retry_pad: Dict[Circuit, float] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return all(left <= TIME_EPS for left in self.total_left.values())


class SunflowController:
    """Online controller: plan, issue, observe, replan.

    Args:
        bandwidth_bps: line rate ``B`` used to convert demand to time.
        scheduler: the planning algorithm (a configured SunflowScheduler).
        policy: inter-Coflow priority policy.
        command_latency: controller→switch delay; commands are issued this
            long before their reservation starts and replans take effect
            one latency after the triggering observation.
        priority_classes: optional operator classes per Coflow id.
    """

    def __init__(
        self,
        bandwidth_bps: float,
        scheduler: SunflowScheduler,
        policy: Optional[Policy] = None,
        command_latency: float = 0.0,
        priority_classes: Optional[Dict[int, int]] = None,
    ) -> None:
        if command_latency < 0:
            raise ValueError("command latency must be non-negative")
        self.bandwidth_bps = bandwidth_bps
        self.scheduler = scheduler
        self.command_latency = command_latency
        #: The replan step, shared with the flow-level simulator; its
        #: counters and ``plan.*`` sub-timers are :attr:`perf`.
        self.planner = InterCoflowPlanner(
            scheduler, policy, priority_classes=priority_classes
        )
        self.perf = self.planner.perf

        self._active: Dict[int, _CoflowLedger] = {}
        #: Issued reservations awaiting their transfer report, mapped to
        #: the service the controller currently expects from them.
        self._outstanding: Dict[Reservation, float] = {}
        #: Teardown instants of outstanding reservations a replan cut short.
        self._torn_down: Dict[Reservation, float] = {}
        self._planned: Dict[int, List[Reservation]] = {}
        self._plan_version = 0
        self.report = SimulationReport("sunflow-system", bandwidth_bps, scheduler.delta)

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def handle_register(self, now: float, message: RegisterCoflow) -> ControllerOutput:
        coflow = message.coflow
        self._active[coflow.coflow_id] = _CoflowLedger(
            coflow=coflow,
            remaining={},
            total_left=dict(coflow.processing_times(self.bandwidth_bps)),
        )
        return self._replan(now)

    def handle_report(self, now: float, message: TransferReport) -> ControllerOutput:
        expected = self._outstanding.pop(message.reservation, None)
        self._torn_down.pop(message.reservation, None)
        ledger = self._active.get(message.coflow_id)
        if ledger is None:
            return ControllerOutput()
        circuit = message.circuit
        left = ledger.total_left.get(circuit, 0.0) - message.transmitted_seconds
        ledger.total_left[circuit] = max(0.0, left)
        if message.transmitted_seconds > 0:
            ledger.last_finish = max(ledger.last_finish, message.finish_time)
        if message.flow_finished:
            ledger.retry_pad.pop(circuit, None)

        if ledger.done:
            self._complete(message.coflow_id, ledger)
            return self._replan(now)

        shortfall = (
            expected is not None
            and message.transmitted_seconds < expected - TIME_EPS
            and not message.flow_finished
        )
        if shortfall:
            # A glitch (late circuit-live signal, early teardown estimate
            # drift) delivered less than promised.  If the window moved
            # *nothing*, the glitch ate the whole reservation — over-reserve
            # the retry, doubling on repeats (capped) so retries converge.
            if message.transmitted_seconds <= TIME_EPS:
                previous_pad = ledger.retry_pad.get(circuit, 0.0)
                ledger.retry_pad[circuit] = min(
                    1000.0 * self.scheduler.delta,
                    max(self.scheduler.delta, 2.0 * previous_pad),
                )
            # Replan immediately only when nothing else is scheduled for
            # this circuit — otherwise the leftover simply rides along at
            # the next regular replan (avoids a replan per glitched report).
            if not self._circuit_covered(message.coflow_id, circuit):
                return self._replan(now)
        return ControllerOutput()

    def _circuit_covered(self, coflow_id: int, circuit: Circuit) -> bool:
        """True if a planned or in-flight reservation still serves ``circuit``."""
        for reservation in self._planned.get(coflow_id, ()):
            if (reservation.src, reservation.dst) == circuit:
                return True
        for reservation in self._outstanding:
            if (
                reservation.coflow_id == coflow_id
                and (reservation.src, reservation.dst) == circuit
            ):
                return True
        return False

    def handle_tick(self, now: float, tick: IssueTick) -> ControllerOutput:
        """Issue a planned reservation's setup command, unless superseded."""
        if tick.plan_version != self._plan_version:
            return ControllerOutput()
        queue = self._planned.get(tick.reservation.coflow_id, [])
        if tick.reservation not in queue:
            return ControllerOutput()
        queue.remove(tick.reservation)
        self._outstanding[tick.reservation] = tick.reservation.transmit_duration
        ledger = self._active.get(tick.reservation.coflow_id)
        if ledger is not None and tick.reservation.setup > 0:
            ledger.switching_count += 1
        return ControllerOutput(commands=[SetupCircuit(tick.reservation)])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _complete(self, coflow_id: int, ledger: _CoflowLedger) -> None:
        self.report.add(
            make_record(
                ledger.coflow,
                completion_time=ledger.last_finish,
                bandwidth_bps=self.bandwidth_bps,
                delta=self.scheduler.delta,
                switching_count=ledger.switching_count,
            )
        )
        del self._active[coflow_id]
        self._planned.pop(coflow_id, None)

    def _replan(self, now: float) -> ControllerOutput:
        """Preempt the old plan and reschedule everything from
        ``now + command_latency``."""
        self._plan_version += 1
        self._planned = {}
        effective = now + self.command_latency
        output = ControllerOutput()

        # In-flight reservations that outlive the new plan's start are
        # torn down there (below, once the plan is known); count the
        # service they will have delivered by then and remember circuits
        # that stay configured so continuations skip (part of) the setup.
        active = self._active
        for ledger in active.values():
            ledger.established.clear()
        expected_by_circuit: Dict[Tuple[int, Circuit], float] = {}
        in_flight: List[Tuple[Reservation, float]] = []
        torn_down = self._torn_down
        for reservation in self._outstanding:
            key = (reservation.coflow_id, (reservation.src, reservation.dst))
            if reservation.end <= effective + TIME_EPS or (
                # Torn down by an earlier replan, its report still in
                # flight: the switch released the circuit then, so it
                # serves nothing more and cannot be continued without δ.
                torn_down
                and torn_down.get(reservation, effective) < effective - TIME_EPS
            ):
                expected_by_circuit[key] = (
                    expected_by_circuit.get(key, 0.0) + self._outstanding[reservation]
                )
                continue
            estimate = max(
                0.0, min(reservation.end, effective) - reservation.transmit_start
            )
            estimate = min(estimate, self._outstanding[reservation])
            in_flight.append((reservation, estimate))
            if effective > reservation.transmit_start + TIME_EPS:
                expected_by_circuit[key] = expected_by_circuit.get(key, 0.0) + estimate
            ledger = active.get(reservation.coflow_id)
            if ledger is not None and reservation.start <= effective + TIME_EPS:
                setup_left = max(0.0, reservation.transmit_start - effective)
                ledger.established[key[1]] = (setup_left, None)

        # The plan serves what is neither reported nor still in flight.
        for cid, ledger in active.items():
            demand = ledger.remaining
            demand.clear()
            for circuit, left in ledger.total_left.items():
                if left <= TIME_EPS:
                    continue
                pending = expected_by_circuit.get((cid, circuit), 0.0)
                value = max(0.0, left - pending)
                if value > TIME_EPS:
                    demand[circuit] = value + ledger.retry_pad.get(circuit, 0.0)
        schedules = self.planner.plan(active, effective)

        # Keep running an issued reservation the new plan reproduces bit for
        # bit: cancelling it and issuing an equal value would let the
        # agent's report for the cancelled one settle the new one.  The new
        # plan starts nothing before ``effective``, so only one not yet
        # started (typically going live exactly then) can be reproduced.
        kept = {r for r, _ in in_flight if r.start >= effective}
        if kept:
            kept.intersection_update(
                r for schedule in schedules.values() for r in schedule.reservations
            )
        for reservation, estimate in in_flight:
            if kept and reservation in kept:
                continue
            output.teardowns.append(TeardownCircuit(reservation, when=effective))
            if effective <= reservation.transmit_start + TIME_EPS:
                # Cancelled before any transmission: the agent never went
                # live and will send no report — settle the ledger now.
                del self._outstanding[reservation]
                if reservation.setup > 0 and effective <= reservation.start + TIME_EPS:
                    # Cancelled before its setup began: like the flow-level
                    # model, count only reconfigurations that started.
                    ledger = active.get(reservation.coflow_id)
                    if ledger is not None:
                        ledger.switching_count -= 1
            else:
                self._outstanding[reservation] = estimate
                self._torn_down.setdefault(reservation, effective)

        for cid, schedule in schedules.items():
            planned = schedule.reservations
            if kept:
                planned = [r for r in planned if r not in kept]
            self._planned[cid] = list(planned)
            for reservation in self._planned[cid]:
                issue_at = max(now, reservation.start - self.command_latency)
                output.ticks.append(
                    (issue_at, IssueTick(self._plan_version, reservation))
                )
        return output

    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def finished(self) -> bool:
        return not self._active
