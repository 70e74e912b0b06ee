"""End-to-end tests for the system-level runner, including
cross-validation against the flow-level simulator."""

import random

import pytest

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.prt import TIME_EPS
from repro.sim import simulate_inter_sunflow
from repro.system import LatencyConfig, simulate_system
from repro.system.switch import OpticalSwitch
from repro.units import GBPS, MB, MS

B = 1 * GBPS
DELTA = 10 * MS


def trace_of(*coflows, num_ports=8):
    return CoflowTrace(num_ports=num_ports, coflows=list(coflows))


def random_trace(seed, num_coflows=12, num_ports=6):
    rng = random.Random(seed)
    coflows = []
    for i in range(1, num_coflows + 1):
        demand = {}
        for _ in range(rng.randint(1, 5)):
            demand[(rng.randrange(num_ports), rng.randrange(num_ports))] = (
                rng.uniform(1, 80) * MB
            )
        coflows.append(Coflow.from_demand(i, demand, arrival_time=rng.uniform(0, 3)))
    return trace_of(*coflows, num_ports=num_ports)


class TestCrossValidation:
    def test_single_coflow_matches_flow_level_exactly(self, figure1_coflow):
        trace = trace_of(figure1_coflow.with_arrival(2.0), num_ports=8)
        system = simulate_system(trace, B, DELTA)
        flow = simulate_inter_sunflow(trace, B, DELTA)
        assert system.records[0].cct == pytest.approx(flow.records[0].cct)
        assert system.records[0].switching_count == flow.records[0].switching_count

    def test_disjoint_coflows_match_exactly(self):
        a = Coflow.from_demand(1, {(0, 1): 50 * MB}, arrival_time=0.0)
        b = Coflow.from_demand(2, {(2, 3): 80 * MB}, arrival_time=0.5)
        trace = trace_of(a, b)
        system = simulate_system(trace, B, DELTA).by_id()
        flow = simulate_inter_sunflow(trace, B, DELTA).by_id()
        for cid in (1, 2):
            assert system[cid].cct == pytest.approx(flow[cid].cct)

    def test_sequential_coflows_match_exactly(self):
        """Arrivals with idle gaps: no replan ever interrupts a reservation,
        so the component system and the flow-level model coincide."""
        coflows = [
            Coflow.from_demand(i, {(0, 1): 25 * MB}, arrival_time=5.0 * i)
            for i in range(1, 5)
        ]
        trace = trace_of(*coflows)
        system = simulate_system(trace, B, DELTA).by_id()
        flow = simulate_inter_sunflow(trace, B, DELTA).by_id()
        for cid in system:
            assert system[cid].cct == pytest.approx(flow[cid].cct)

    @pytest.mark.parametrize(
        "seed, delta",
        [pytest.param(seed, DELTA, id=str(seed)) for seed in range(1, 21)]
        + [pytest.param(seed, 0.0, id=f"{seed}-delta0") for seed in range(1, 21)],
    )
    def test_contended_traces_match_exactly(self, seed, delta):
        """With zero control latencies the component system (controller +
        switch + agents + teardown-based preemption) reproduces the
        flow-level model's per-Coflow switching counts exactly and its
        CCTs to within 1e-12 s.  At δ = 0 a replan often lands exactly
        when a reservation goes live and re-plans it unchanged.

        The CCTs are not bit-identical: the controller plans
        ``total_left`` minus its in-flight estimate rather than the
        simulator's banked remainder, and it does not anchor continuation
        ends, so a float sum can round differently (about one record in
        five, by at most 2.7e-15 s over seeds 1-40).  Changing either
        would change the §6 records the repository benchmark's golden
        digest pins."""
        trace = random_trace(seed)
        system = simulate_system(trace, B, delta).by_id()
        flow = simulate_inter_sunflow(trace, B, delta).by_id()
        assert set(system) == set(flow)
        for cid in system:
            assert system[cid].cct == pytest.approx(flow[cid].cct, rel=0, abs=1e-12)
            assert system[cid].switching_count == flow[cid].switching_count


class TestLatencyEffects:
    def test_zero_latency_is_default(self):
        config = LatencyConfig()
        assert config.registration == config.command == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyConfig(report=-1.0)

    def test_registration_latency_delays_service(self):
        coflow = Coflow.from_demand(1, {(0, 1): 50 * MB})
        trace = trace_of(coflow)
        prompt = simulate_system(trace, B, DELTA)
        delayed = simulate_system(
            trace, B, DELTA, latency=LatencyConfig(registration=0.5)
        )
        assert delayed.records[0].cct == pytest.approx(
            prompt.records[0].cct + 0.5
        )

    def test_command_latency_costs_one_planning_horizon(self):
        coflow = Coflow.from_demand(1, {(0, 1): 50 * MB})
        trace = trace_of(coflow)
        prompt = simulate_system(trace, B, DELTA)
        delayed = simulate_system(trace, B, DELTA, latency=LatencyConfig(command=0.02))
        assert delayed.records[0].cct == pytest.approx(prompt.records[0].cct + 0.02)

    def test_signal_latency_causes_shortfall_and_recovery(self):
        """A late circuit-live signal loses window head; the controller
        replans the leftover, so the transfer still completes — just later."""
        coflow = Coflow.from_demand(1, {(0, 1): 50 * MB})
        trace = trace_of(coflow)
        prompt = simulate_system(trace, B, DELTA)
        glitched = simulate_system(
            trace, B, DELTA, latency=LatencyConfig(signal=0.005)
        )
        assert glitched.records[0].cct > prompt.records[0].cct
        assert len(glitched) == 1  # completed despite the glitch

    @pytest.mark.parametrize("seed", [0, 2, 7])
    def test_torn_down_circuits_are_not_continued_later(self, seed, monkeypatch):
        """A setup paying less than δ continues a configured circuit, so
        the switch must still hold that circuit when the command lands.
        With a 1 ms signal and 0.5 ms legs, the report of a reservation a
        replan tore down is still in flight at later replans; those must
        plan the circuit afresh, not continue it."""
        orphans = []
        handle_setup = OpticalSwitch.handle_setup

        def checked(switch, now, command):
            reservation = command.reservation
            if reservation.setup < DELTA - TIME_EPS:
                for table, port in (
                    (switch._inputs, reservation.src),
                    (switch._outputs, reservation.dst),
                ):
                    state = table.get(port)
                    held = state.reservation if state is not None else None
                    if (
                        held is None
                        or held.circuit != reservation.circuit
                        or state.busy_until < reservation.start - TIME_EPS
                    ):
                        orphans.append(reservation)
                        break
            return handle_setup(switch, now, command)

        monkeypatch.setattr(OpticalSwitch, "handle_setup", checked)
        latency = LatencyConfig(
            registration=0.5 * MS, command=0.5 * MS, report=0.5 * MS, signal=1.0 * MS
        )
        trace = random_trace(seed, num_coflows=8)
        report = simulate_system(trace, B, DELTA, latency=latency)
        assert len(report) == 8
        assert orphans == []

    def test_latencies_never_speed_things_up(self):
        trace = random_trace(7)
        ideal = simulate_system(trace, B, DELTA)
        realistic = simulate_system(
            trace,
            B,
            DELTA,
            latency=LatencyConfig(
                registration=0.001, command=0.002, signal=0.0, report=0.001
            ),
        )
        assert realistic.average_cct() >= ideal.average_cct() - 1e-9


class TestRobustness:
    def test_all_coflows_complete_or_runner_raises(self):
        trace = random_trace(11, num_coflows=20)
        report = simulate_system(trace, B, DELTA)
        assert len(report) == 20

    def test_switching_counts_reported(self, figure1_coflow):
        trace = trace_of(figure1_coflow, num_ports=8)
        report = simulate_system(trace, B, DELTA)
        assert report.records[0].switching_count == figure1_coflow.num_flows
