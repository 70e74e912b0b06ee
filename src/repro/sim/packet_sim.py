"""Fluid packet-switched network simulation (paper §2.1, §5.4).

In the packet switched network the fabric can serve many virtual output
queues simultaneously, subject to per-port bandwidth constraints:
``Σ_i b_ij ≤ B`` and ``Σ_j b_ij ≤ B``.  The simulation is *fluid*: a rate
allocator assigns each flow a fraction of line rate, flows drain linearly,
and rates are recomputed only at scheduling events — Coflow arrivals and
completions (exactly Varys' behaviour, whose residual-bandwidth idling the
paper discusses in §5.4), plus allocator-specific events such as Aalo's
queue-threshold crossings.

Demand bookkeeping uses *processing seconds* (bytes ÷ line rate) and rates
are dimensionless fractions of ``B``, mirroring the circuit-side units so
CCTs are directly comparable.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.prt import TIME_EPS
from repro.sim.engine import run_replay
from repro.sim.results import SimulationReport, make_record
from repro.units import DEFAULT_BANDWIDTH

Circuit = Tuple[int, int]
FlowKey = Tuple[int, int, int]  # (coflow_id, src, dst)


@dataclass
class PacketCoflowState:
    """Mutable per-Coflow state visible to rate allocators.

    The simulator drains flows exclusively through :meth:`drain`, which
    keeps an unfinished-flow counter in sync so :attr:`done` is O(1)
    instead of re-scanning every flow on every event.  Code that writes
    ``remaining`` directly (tests building scenarios by hand) must
    construct a fresh state afterwards — the counter is only maintained
    across :meth:`drain` calls.
    """

    coflow: Coflow
    #: Remaining processing seconds per flow.
    remaining: Dict[Circuit, float]
    #: Total processing seconds already served (Aalo's attained service).
    sent_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._unfinished = sum(1 for p in self.remaining.values() if p > TIME_EPS)

    @property
    def coflow_id(self) -> int:
        return self.coflow.coflow_id

    @property
    def arrival_time(self) -> float:
        return self.coflow.arrival_time

    @property
    def unfinished_count(self) -> int:
        """Number of flows still above ``TIME_EPS`` (maintained on drain)."""
        return self._unfinished

    @property
    def done(self) -> bool:
        return self._unfinished == 0

    def drain(self, circuit: Circuit, served: float) -> None:
        """Serve ``served`` processing seconds of one flow.

        Decrements the unfinished counter exactly once, on the drain
        that takes the flow's remaining demand below ``TIME_EPS``.
        """
        p = self.remaining[circuit]
        left = p - served
        self.remaining[circuit] = left
        self.sent_seconds += served
        if p > TIME_EPS and left <= TIME_EPS:
            self._unfinished -= 1

    def unfinished_flows(self) -> List[Circuit]:
        return [circuit for circuit, p in self.remaining.items() if p > TIME_EPS]

    def bottleneck(self) -> float:
        """Remaining ``T^p_L`` in seconds (SEBF's effective bottleneck)."""
        input_load: Dict[int, float] = {}
        output_load: Dict[int, float] = {}
        for (src, dst), p in self.remaining.items():
            if p > TIME_EPS:
                input_load[src] = input_load.get(src, 0.0) + p
                output_load[dst] = output_load.get(dst, 0.0) + p
        loads = list(input_load.values()) + list(output_load.values())
        return max(loads) if loads else 0.0


class RateAllocator(abc.ABC):
    """Assigns each unfinished flow a fraction of line rate."""

    #: Name used in reports.
    name: str = "allocator"
    #: Internal passes per allocate() call (perf accounting only — e.g.
    #: Varys' MADD + backfill counts 2, Aalo's weighted discipline 2).
    allocation_passes: int = 1
    #: Whether the simulator should also recompute rates when an individual
    #: flow (not a whole Coflow) finishes.  Varys does not (freed bandwidth
    #: idles until the next Coflow arrival/completion); Aalo effectively
    #: does, since it reallocates on a fine timer.
    reallocate_on_flow_completion: bool = False

    @abc.abstractmethod
    def allocate(
        self, states: Sequence[PacketCoflowState], num_ports: int, bandwidth_bps: float
    ) -> Dict[FlowKey, float]:
        """Return ``{(coflow_id, src, dst): fraction of B}`` for unfinished flows.

        Implementations must respect ``Σ fractions ≤ 1`` on every input and
        output port.
        """

    def extra_event_time(
        self,
        states: Sequence[PacketCoflowState],
        rates: Dict[FlowKey, float],
        now: float,
        bandwidth_bps: float,
    ) -> float:
        """Next allocator-specific event after ``now`` (inf if none).

        Aalo overrides this with queue-threshold crossing times.
        """
        return math.inf


class PacketSimulator:
    """Trace replay on the fluid packet switch with a pluggable allocator.

    The dict-based engine: it runs any :class:`RateAllocator`, so
    custom and subclassed allocators (which the array-backed
    :class:`~repro.sim.packet_vector.VectorPacketSimulator` cannot
    honour) replay here, and it is the behavioural oracle the
    differential suite holds the vector engine to, bit for bit.
    ``event_times`` logs the processed events for that comparison.
    """

    def __init__(
        self,
        trace: CoflowTrace,
        allocator: RateAllocator,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
    ) -> None:
        self.trace = trace.sorted_by_arrival()
        self.allocator = allocator
        self.bandwidth_bps = bandwidth_bps
        self.event_times: List[float] = []

    def run(self) -> SimulationReport:
        self._report = SimulationReport(
            self.allocator.name, self.bandwidth_bps, delta=0.0
        )
        self._passes = getattr(self.allocator, "allocation_passes", 1)
        self._active = {}
        self._states = []
        self._rates = {}
        run_replay(self, list(self.trace))
        return self._report

    # ------------------------------------------------------------------
    # ReplayHost hooks (driven by repro.sim.engine.run_replay)
    # ------------------------------------------------------------------
    def has_active(self) -> bool:
        return bool(self._active)

    def admit(self, coflow: Coflow, now: float) -> None:
        self._active[coflow.coflow_id] = PacketCoflowState(
            coflow=coflow,
            remaining=dict(coflow.processing_times(self.bandwidth_bps)),
        )

    def plan(self, now: float, next_arrival: float) -> float:
        from repro.perf import packet_counters

        states = self._states = list(self._active.values())
        rates = self._rates = self.allocator.allocate(
            states, self.trace.num_ports, self.bandwidth_bps
        )
        packet_counters.inc("rate_reallocations")
        packet_counters.inc("allocator_passes", self._passes)
        packet_counters.observe_max(
            "flows_active_peak",
            sum(state.unfinished_count for state in states),
        )
        self._check_capacity(rates)
        return min(
            next_arrival,
            self._next_completion(states, rates, now),
            self.allocator.extra_event_time(states, rates, now, self.bandwidth_bps),
        )

    def advance(self, now: float, event_time: float) -> None:
        from repro.perf import packet_counters

        self._advance(self._states, self._rates, event_time - now)
        packet_counters.inc("events_processed")
        active = self._active
        finished = [cid for cid, state in active.items() if state.done]
        for cid in finished:
            state = active.pop(cid)
            self._report.add(
                make_record(
                    state.coflow,
                    completion_time=event_time,
                    bandwidth_bps=self.bandwidth_bps,
                    delta=0.0,
                    switching_count=0,
                )
            )
        self.event_times.append(event_time)

    # ------------------------------------------------------------------
    def _check_capacity(self, rates: Dict[FlowKey, float]) -> None:
        input_rate: Dict[int, float] = {}
        output_rate: Dict[int, float] = {}
        for (_, src, dst), fraction in rates.items():
            if fraction < -TIME_EPS:
                raise ValueError(f"negative rate for flow ({src}, {dst})")
            input_rate[src] = input_rate.get(src, 0.0) + fraction
            output_rate[dst] = output_rate.get(dst, 0.0) + fraction
        tolerance = 1e-6
        for port, total in input_rate.items():
            if total > 1.0 + tolerance:
                raise ValueError(f"input port {port} over capacity: {total}")
        for port, total in output_rate.items():
            if total > 1.0 + tolerance:
                raise ValueError(f"output port {port} over capacity: {total}")

    def _next_completion(
        self,
        states: Sequence[PacketCoflowState],
        rates: Dict[FlowKey, float],
        now: float,
    ) -> float:
        """Earliest upcoming Coflow (or, if enabled, flow) completion."""
        earliest = math.inf
        for state in states:
            coflow_finish = 0.0
            for circuit, p in state.remaining.items():
                if p <= TIME_EPS:
                    continue
                rate = rates.get((state.coflow_id,) + circuit, 0.0)
                if rate <= 0:
                    coflow_finish = math.inf
                    if not self.allocator.reallocate_on_flow_completion:
                        break
                    continue
                finish = now + p / rate
                if self.allocator.reallocate_on_flow_completion:
                    earliest = min(earliest, finish)
                coflow_finish = max(coflow_finish, finish)
            if coflow_finish not in (0.0, math.inf):
                earliest = min(earliest, coflow_finish)
        return earliest

    @staticmethod
    def _advance(
        states: Sequence[PacketCoflowState],
        rates: Dict[FlowKey, float],
        duration: float,
    ) -> None:
        if duration <= 0:
            return
        for state in states:
            for circuit in list(state.remaining):
                p = state.remaining[circuit]
                if p <= TIME_EPS:
                    continue
                rate = rates.get((state.coflow_id,) + circuit, 0.0)
                if rate <= 0:
                    continue
                served = min(p, rate * duration)
                state.drain(circuit, served)


def simulate_packet(
    trace: CoflowTrace,
    allocator: RateAllocator,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
) -> SimulationReport:
    """One-call packet-switched trace replay under the given allocator.

    A stock Varys/Aalo allocator runs on the array-backed
    :class:`~repro.sim.packet_vector.VectorPacketSimulator`; a custom or
    subclassed allocator, whose overrides the vector engine can't honour,
    runs on :class:`PacketSimulator`.  Both produce identical reports.
    """
    from repro.sim.packet_vector import VectorPacketSimulator, vector_capable

    if vector_capable(allocator):
        return VectorPacketSimulator(trace, allocator, bandwidth_bps).run()
    return PacketSimulator(trace, allocator, bandwidth_bps).run()
