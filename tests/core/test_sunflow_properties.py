"""Property-based tests for Sunflow's theoretical guarantees.

These are the paper's Lemmas exercised over random Coflows, deltas and
orderings — the strongest correctness evidence in the suite:

* Lemma 1: ``CCT ≤ 2·T^c_L`` for any B, any δ, any Coflow, any ordering.
* Lemma 2: ``CCT ≤ 2(1+α)·T^p_L``.
* Port constraint and demand conservation always hold.
* The event-driven scheduler matches the literal Algorithm 1 transcription.
* Intra-Coflow switching count is exactly ``|C|`` (the minimum).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    alpha,
    circuit_lower_bound,
    packet_lower_bound,
)
from repro.core.coflow import Coflow
from repro.core.prt import PortReservationTable
from repro.core.sunflow import ReservationOrder, SunflowScheduler
from repro.units import GBPS, MB
from tests.oracles.sunflow_reference import ReferenceSunflowScheduler

B = 1 * GBPS


@st.composite
def demand_maps(draw, max_ports=7, max_flows=14):
    num_flows = draw(st.integers(min_value=1, max_value=max_flows))
    demand = {}
    for _ in range(num_flows):
        src = draw(st.integers(min_value=0, max_value=max_ports - 1))
        dst = draw(st.integers(min_value=0, max_value=max_ports - 1))
        mb = draw(st.floats(min_value=0.05, max_value=300.0))
        demand[(src, dst)] = mb * MB
    return demand


@st.composite
def scheduling_cases(draw):
    demand = draw(demand_maps())
    delta = draw(st.sampled_from([0.0, 1e-5, 1e-3, 0.01, 0.1, 1.0]))
    order = draw(st.sampled_from(list(ReservationOrder)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return demand, delta, order, seed


class TestLemmaOne:
    @given(scheduling_cases())
    @settings(max_examples=150, deadline=None)
    def test_cct_within_two_times_circuit_lower_bound(self, case):
        demand, delta, order, seed = case
        coflow = Coflow.from_demand(1, demand)
        scheduler = SunflowScheduler(delta=delta, order=order, rng=random.Random(seed))
        result = scheduler.schedule_coflow(coflow, B, start_time=0.0)
        lower = circuit_lower_bound(coflow, B, delta)
        assert result.makespan <= 2 * lower * (1 + 1e-9)
        assert result.makespan >= lower * (1 - 1e-9) or lower == 0


class TestLemmaTwo:
    @given(scheduling_cases())
    @settings(max_examples=100, deadline=None)
    def test_cct_within_lemma_two_packet_bound(self, case):
        demand, delta, order, seed = case
        coflow = Coflow.from_demand(1, demand)
        scheduler = SunflowScheduler(delta=delta, order=order, rng=random.Random(seed))
        result = scheduler.schedule_coflow(coflow, B, start_time=0.0)
        bound = 2 * (1 + alpha(coflow, B, delta)) * packet_lower_bound(coflow, B)
        assert result.makespan <= bound * (1 + 1e-9)


class TestStructuralInvariants:
    @given(scheduling_cases())
    @settings(max_examples=120, deadline=None)
    def test_port_constraint_and_demand_conservation(self, case):
        demand, delta, order, seed = case
        coflow = Coflow.from_demand(1, demand)
        scheduler = SunflowScheduler(delta=delta, order=order, rng=random.Random(seed))
        prt = PortReservationTable()
        result = scheduler.schedule_demand(prt, 1, coflow.processing_times(B))
        prt.validate()
        served = {}
        for r in result.reservations:
            served[(r.src, r.dst)] = served.get((r.src, r.dst), 0.0) + r.transmit_duration
        for circuit, p in coflow.processing_times(B).items():
            assert served.get(circuit, 0.0) == pytest.approx(p, rel=1e-6, abs=1e-9)

    @given(scheduling_cases())
    @settings(max_examples=120, deadline=None)
    def test_intra_switching_count_is_minimum(self, case):
        """With an empty PRT, every flow is set up exactly once (Figure 5's
        'Sunflow switching count is always optimal')."""
        demand, delta, order, seed = case
        coflow = Coflow.from_demand(1, demand)
        scheduler = SunflowScheduler(delta=delta, order=order, rng=random.Random(seed))
        result = scheduler.schedule_coflow(coflow, B, start_time=0.0)
        assert len(result.reservations) == coflow.num_flows

    @given(scheduling_cases())
    @settings(max_examples=80, deadline=None)
    def test_no_reservation_before_start_time(self, case):
        demand, delta, order, seed = case
        coflow = Coflow.from_demand(1, demand)
        scheduler = SunflowScheduler(delta=delta, order=order, rng=random.Random(seed))
        result = scheduler.schedule_coflow(coflow, B, start_time=3.0)
        assert all(r.start >= 3.0 - 1e-9 for r in result.reservations)


class TestEquivalenceWithReference:
    @given(
        demand_maps(max_ports=5, max_flows=8),
        st.sampled_from([0.0, 1e-3, 0.02, 0.3]),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.05, max_value=1.0),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_event_driven_matches_literal_algorithm(self, demand, delta, pre):
        """The optimized scheduler and the literal Algorithm 1 transcription
        produce identical reservations, including against pre-existing
        (higher-priority) reservations."""
        scheduler = ReferenceSunflowScheduler(delta=delta)
        fast_prt, slow_prt = PortReservationTable(), PortReservationTable()
        for src, dst, start, length in pre:
            for prt in (fast_prt, slow_prt):
                try:
                    prt.reserve(
                        src, dst, start=start, end=start + length, coflow_id=9,
                        setup=min(delta, length),
                    )
                except Exception:
                    pass
        times = {k: v * 8 / B for k, v in demand.items()}
        fast = scheduler.schedule_demand(fast_prt, 1, times)
        slow = scheduler.schedule_demand_reference(slow_prt, 1, times)
        key = lambda rs: sorted((r.start, r.end, r.src, r.dst, r.setup) for r in rs)
        assert key(fast.reservations) == key(slow.reservations)


class TestInterCoflowProperties:
    @given(
        st.lists(demand_maps(max_ports=5, max_flows=6), min_size=2, max_size=4),
        st.sampled_from([1e-3, 0.01, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_coflow_never_hurt_by_followers(self, demands, delta):
        """Inter-Coflow non-blocking: the highest-priority Coflow's schedule
        is identical with or without lower-priority Coflows present."""
        scheduler = SunflowScheduler(delta=delta)
        coflows = [
            Coflow.from_demand(i + 1, demand) for i, demand in enumerate(demands)
        ]
        alone = scheduler.schedule_coflow(coflows[0], B, start_time=0.0)
        _, together = scheduler.schedule_coflows(coflows, B)
        assert together[1].makespan == pytest.approx(alone.makespan)

    @given(
        st.lists(demand_maps(max_ports=5, max_flows=6), min_size=2, max_size=4),
        st.sampled_from([1e-3, 0.01, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_demand_served_across_coflows(self, demands, delta):
        scheduler = SunflowScheduler(delta=delta)
        coflows = [
            Coflow.from_demand(i + 1, demand) for i, demand in enumerate(demands)
        ]
        prt, schedules = scheduler.schedule_coflows(coflows, B)
        prt.validate()
        for coflow in coflows:
            served = {}
            for r in schedules[coflow.coflow_id].reservations:
                served[(r.src, r.dst)] = (
                    served.get((r.src, r.dst), 0.0) + r.transmit_duration
                )
            for circuit, p in coflow.processing_times(B).items():
                assert served.get(circuit, 0.0) == pytest.approx(p, rel=1e-6, abs=1e-9)
