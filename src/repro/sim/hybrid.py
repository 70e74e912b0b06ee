"""Hybrid circuit/packet service (paper §2.1, §6 — REACToR-style).

The paper focuses on the pure circuit switch but notes that hybrid
networks "filter and offload traffic to different parallel networks", and
that a REACToR-style ToR lets "a small-bandwidth packet switched network
help accommodate the little leftover traffic".  This module implements
that extension for the intra-Coflow (one Coflow at a time) setting:

* flows smaller than a size threshold go to a parallel packet network
  running at a configurable fraction of the link rate;
* the remaining (large) flows are scheduled on the OCS by Sunflow;
* the Coflow completes when both halves finish.

For a single Coflow the fluid packet network achieves exactly its packet
lower bound ``T^p_L`` (MADD finishes every flow at the bottleneck), so the
packet half is computed in closed form rather than simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.bounds import packet_lower_bound
from repro.core.coflow import Coflow, CoflowTrace
from repro.core.sunflow import ReservationOrder, SunflowScheduler
from repro.sim.results import SimulationReport, make_record
from repro.units import DEFAULT_BANDWIDTH, DEFAULT_DELTA, MB


@dataclass(frozen=True)
class HybridConfig:
    """Parameters of the hybrid fabric.

    Attributes:
        size_threshold_bytes: flows strictly smaller than this are carried
            by the packet network (0 disables offload — pure circuit).
        packet_bandwidth_fraction: the packet network's per-port rate as a
            fraction of the optical link rate ``B`` (REACToR pairs a fast
            OCS with a much slower packet switch, e.g. 10 %).
    """

    size_threshold_bytes: float = 10 * MB
    packet_bandwidth_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.size_threshold_bytes < 0:
            raise ValueError("size threshold must be non-negative")
        if not 0 < self.packet_bandwidth_fraction <= 1:
            raise ValueError("packet bandwidth fraction must be in (0, 1]")


def split_coflow(
    coflow: Coflow, config: HybridConfig
) -> Tuple[Optional[Coflow], Optional[Coflow]]:
    """Partition a Coflow into (circuit part, packet part) by flow size."""
    big = {
        (f.src, f.dst): f.size_bytes
        for f in coflow.flows
        if f.size_bytes >= config.size_threshold_bytes
    }
    small = {
        (f.src, f.dst): f.size_bytes
        for f in coflow.flows
        if f.size_bytes < config.size_threshold_bytes
    }
    circuit_part = (
        Coflow.from_demand(coflow.coflow_id, big, coflow.arrival_time) if big else None
    )
    packet_part = (
        Coflow.from_demand(coflow.coflow_id, small, coflow.arrival_time)
        if small
        else None
    )
    return circuit_part, packet_part


def split_trace(
    trace: CoflowTrace, config: HybridConfig
) -> Tuple[CoflowTrace, CoflowTrace]:
    """Partition a whole trace into (circuit trace, packet trace).

    Coflows with no flows on one side are simply absent from that side's
    trace; Coflow ids are preserved so the two halves can be rejoined.
    """
    circuit_coflows, packet_coflows = [], []
    for coflow in trace:
        circuit_part, packet_part = split_coflow(coflow, config)
        if circuit_part is not None:
            circuit_coflows.append(circuit_part)
        if packet_part is not None:
            packet_coflows.append(packet_part)
    return (
        CoflowTrace(trace.num_ports, circuit_coflows),
        CoflowTrace(trace.num_ports, packet_coflows),
    )


def simulate_intra_hybrid(
    trace: CoflowTrace,
    config: HybridConfig,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
) -> SimulationReport:
    """Back-to-back hybrid service: Sunflow circuits + packet offload.

    Returns one record per Coflow whose CCT is the later of the circuit
    half's Sunflow makespan and the packet half's ``T^p_L`` at the packet
    network's rate.  Switching counts reflect the circuit half only.
    """
    scheduler = SunflowScheduler(delta=delta, order=order)
    packet_rate = config.packet_bandwidth_fraction * bandwidth_bps
    report = SimulationReport("sunflow-hybrid", bandwidth_bps, delta)
    for coflow in trace:
        circuit_part, packet_part = split_coflow(coflow, config)
        circuit_cct = 0.0
        switching = 0
        if circuit_part is not None:
            schedule = scheduler.schedule_coflow(
                circuit_part, bandwidth_bps, start_time=0.0
            )
            circuit_cct = schedule.makespan
            switching = schedule.num_setups
        packet_cct = (
            packet_lower_bound(packet_part, packet_rate)
            if packet_part is not None
            else 0.0
        )
        report.add(
            make_record(
                coflow,
                completion_time=coflow.arrival_time + max(circuit_cct, packet_cct),
                bandwidth_bps=bandwidth_bps,
                delta=delta,
                switching_count=switching,
            )
        )
    return report


def simulate_inter_hybrid(
    trace: CoflowTrace,
    config: HybridConfig,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    allocator=None,
) -> SimulationReport:
    """Trace replay on the hybrid fabric: OCS + parallel packet overlay.

    Small flows ride the packet overlay (Varys-scheduled at
    ``packet_bandwidth_fraction × B``); large flows ride the Sunflow-
    scheduled circuit fabric at full rate.  The two substrates run
    independently — REACToR multiplexes them per packet, and the overlay
    is provisioned *in addition to* the optical ports, which is exactly
    the deployment the paper's §6 describes — and a Coflow completes when
    its later half completes.

    Each substrate's scheduler sees only its own half of every Coflow, so
    shortest-first priorities are computed per substrate (the overlay
    cannot know the optical half's backlog and vice versa).

    ``allocator`` selects the overlay's rate allocator (default: a fresh
    :class:`~repro.sim.varys.VarysAllocator`); the replay goes through
    :func:`~repro.sim.packet_sim.simulate_packet`, so a stock allocator
    rides the vectorized engine.
    """
    from repro.sim.circuit_sim import simulate_inter_sunflow
    from repro.sim.packet_sim import simulate_packet
    from repro.sim.varys import VarysAllocator

    circuit_trace, packet_trace = split_trace(trace, config)
    circuit_by_id = {}
    if len(circuit_trace):
        circuit_by_id = simulate_inter_sunflow(
            circuit_trace, bandwidth_bps, delta
        ).by_id()
    packet_by_id = {}
    if len(packet_trace):
        packet_rate = config.packet_bandwidth_fraction * bandwidth_bps
        packet_by_id = simulate_packet(
            packet_trace, allocator or VarysAllocator(), packet_rate
        ).by_id()

    report = SimulationReport("sunflow-hybrid", bandwidth_bps, delta)
    for coflow in trace:
        candidates = []
        circuit_record = circuit_by_id.get(coflow.coflow_id)
        if circuit_record is not None:
            candidates.append(circuit_record.completion_time)
        packet_record = packet_by_id.get(coflow.coflow_id)
        if packet_record is not None:
            candidates.append(packet_record.completion_time)
        switching = circuit_record.switching_count if circuit_record else 0
        report.add(
            make_record(
                coflow,
                completion_time=max(candidates),
                bandwidth_bps=bandwidth_bps,
                delta=delta,
                switching_count=switching,
            )
        )
    return report
