"""System-level simulation runner (paper §6 deployment stack).

Wires the centralized controller, the optical switch and one host agent
per input port over a single discrete-event queue with configurable
control-plane latencies, then replays a Coflow trace end-to-end:

    client ──register──▶ controller ──SetupCircuit──▶ switch
                             ▲                           │ CircuitLive
                             └──TransferReport── agent ◀─┘

With all latencies zero the system-level CCTs reproduce the flow-level
simulator's (cross-validated by the test suite); positive latencies
quantify how much a real control plane would cost — an experiment the
paper leaves to deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.coflow import CoflowTrace
from repro.core.policies import Policy
from repro.core.sunflow import ReservationOrder, SunflowScheduler
from repro.sim.engine import EventQueue
from repro.sim.results import SimulationReport
from repro.system.agent import HostAgent
from repro.system.controller import ControllerOutput, IssueTick, SunflowController
from repro.system.messages import (
    CircuitDown,
    CircuitLive,
    RegisterCoflow,
    SetupCircuit,
    TeardownCircuit,
    TransferReport,
)
from repro.system.switch import OpticalSwitch
from repro.units import DEFAULT_BANDWIDTH, DEFAULT_DELTA


@dataclass(frozen=True)
class LatencyConfig:
    """Control-plane delays, all in seconds (default: ideal, zero).

    Attributes:
        registration: client → controller (Coflow announcement).
        command: controller → switch (circuit setup command).  The
            controller compensates by planning ``command`` ahead and
            issuing just-in-time.
        signal: switch → host (REACToR circuit-live signal).  Uncompensated
            — a late signal shrinks the usable transmit window, and the
            shortfall is replanned (the "synchronization glitches" §6
            mentions).
        report: host → controller (transfer report).
    """

    registration: float = 0.0
    command: float = 0.0
    signal: float = 0.0
    report: float = 0.0

    def __post_init__(self) -> None:
        for name in ("registration", "command", "signal", "report"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} latency must be non-negative")


class SystemRunner:
    """Replays a trace through controller + switch + agents.

    Args:
        trace: the workload.
        bandwidth_bps / delta: network parameters.
        latency: control-plane delays.
        policy / order / priority_classes: scheduling configuration,
            forwarded to the controller.
    """

    def __init__(
        self,
        trace: CoflowTrace,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        delta: float = DEFAULT_DELTA,
        latency: Optional[LatencyConfig] = None,
        policy: Optional[Policy] = None,
        order: ReservationOrder = ReservationOrder.ORDERED_PORT,
        priority_classes: Optional[Dict[int, int]] = None,
    ) -> None:
        self.trace = trace.sorted_by_arrival()
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency if latency is not None else LatencyConfig()
        self.switch = OpticalSwitch(trace.num_ports)
        self.agents = {port: HostAgent(port) for port in range(trace.num_ports)}
        self.controller = SunflowController(
            bandwidth_bps=bandwidth_bps,
            scheduler=SunflowScheduler(delta=delta, order=order),
            policy=policy,
            command_latency=self.latency.command,
            priority_classes=priority_classes,
        )

    # ------------------------------------------------------------------
    def run(self, max_events: int = 10_000_000) -> SimulationReport:
        """Drive the event loop to completion; returns the CCT report.

        Raises:
            RuntimeError: if the event budget is exhausted (a wiring bug —
                healthy runs use a few events per reservation).
        """
        queue: EventQueue = EventQueue()
        for coflow in self.trace:
            queue.push(
                coflow.arrival_time + self.latency.registration,
                ("controller", RegisterCoflow(coflow)),
            )

        events = 0
        while queue:
            events += 1
            if events > max_events:
                raise RuntimeError("event budget exhausted; runner wedged?")
            event = queue.pop()
            target, message = event.payload
            now = event.time

            if target == "controller":
                output = self._dispatch_controller(now, message)
                self._absorb(queue, now, output)
            elif target == "switch":
                if isinstance(message, SetupCircuit):
                    switch_events = self.switch.handle_setup(now, message)
                elif isinstance(message, TeardownCircuit):
                    switch_events = self.switch.handle_teardown(now, message)
                else:  # pragma: no cover - wiring is closed
                    raise AssertionError(f"switch cannot handle {message!r}")
                for switch_event in switch_events:
                    queue.push(
                        switch_event.time + self.latency.signal,
                        ("agent", switch_event.message),
                    )
            elif target == "agent":
                reservation = message.reservation
                agent = self.agents[reservation.src]
                if isinstance(message, CircuitLive):
                    agent_events = agent.handle_circuit_live(now, message)
                elif isinstance(message, CircuitDown):
                    agent_events = agent.handle_circuit_down(now, message)
                else:  # pragma: no cover - wiring is closed
                    raise AssertionError(f"agent cannot handle {message!r}")
                for agent_event in agent_events:
                    queue.push(
                        agent_event.time + self.latency.report,
                        ("controller", agent_event.message),
                    )
            else:  # pragma: no cover - wiring is closed
                raise AssertionError(f"unknown target {target!r}")

        if not self.controller.finished:
            raise RuntimeError(
                f"{self.controller.active_count} coflows never completed"
            )
        return self.controller.report

    # ------------------------------------------------------------------
    def _dispatch_controller(self, now: float, message) -> ControllerOutput:
        if isinstance(message, RegisterCoflow):
            for agent in self.agents.values():
                agent.register(message.coflow, self.bandwidth_bps)
            return self.controller.handle_register(now, message)
        if isinstance(message, TransferReport):
            return self.controller.handle_report(now, message)
        if isinstance(message, IssueTick):
            return self.controller.handle_tick(now, message)
        raise AssertionError(f"controller cannot handle {message!r}")

    def _absorb(self, queue: EventQueue, now: float, output: ControllerOutput) -> None:
        for teardown in output.teardowns:
            queue.push(now + self.latency.command, ("switch", teardown))
        for command in output.commands:
            queue.push(now + self.latency.command, ("switch", command))
        for time, tick in output.ticks:
            queue.push(max(time, now), ("controller", tick))


def simulate_system(
    trace: CoflowTrace,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    latency: Optional[LatencyConfig] = None,
    policy: Optional[Policy] = None,
    priority_classes: Optional[Dict[int, int]] = None,
) -> SimulationReport:
    """One-call system-level trace replay (controller/switch/agents)."""
    runner = SystemRunner(
        trace,
        bandwidth_bps=bandwidth_bps,
        delta=delta,
        latency=latency,
        policy=policy,
        priority_classes=priority_classes,
    )
    return runner.run()
