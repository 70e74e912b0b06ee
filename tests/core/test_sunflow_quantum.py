"""Tests for the §6 quantized-scheduling approximation.

Quantization only pays in the literal Algorithm 1 loop, so it lives on
the literal-loop oracle: these tests drive
``ReferenceSunflowScheduler.schedule_demand_reference``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coflow import Coflow
from repro.core.prt import PortReservationTable
from repro.core.sunflow import SunflowScheduler
from repro.units import GBPS, MB
from tests.oracles.sunflow_reference import ReferenceSunflowScheduler

B = 1 * GBPS
DELTA = 0.01


def literal_plan(demand, quantum=None):
    scheduler = ReferenceSunflowScheduler(delta=DELTA, quantum=quantum)
    return scheduler.schedule_demand_reference(PortReservationTable(), 1, dict(demand))


class TestConstruction:
    def test_quantum_validated(self):
        with pytest.raises(ValueError):
            ReferenceSunflowScheduler(quantum=0.0)
        with pytest.raises(ValueError):
            ReferenceSunflowScheduler(quantum=-1.0)

    def test_none_means_exact(self):
        scheduler = ReferenceSunflowScheduler(delta=DELTA)
        assert scheduler.quantum is None

    def test_production_planner_has_no_quantum(self):
        with pytest.raises(TypeError):
            SunflowScheduler(delta=DELTA, quantum=0.1)


class TestRounding:
    def test_demand_rounded_up_to_grid(self):
        schedule = literal_plan({(0, 1): 0.25}, quantum=0.1)
        reservation = schedule.reservations[0]
        assert reservation.transmit_duration == pytest.approx(0.3)

    def test_exact_multiples_unchanged(self):
        schedule = literal_plan({(0, 1): 0.3}, quantum=0.1)
        assert schedule.reservations[0].transmit_duration == pytest.approx(0.3)

    def test_quantized_cct_never_shorter(self):
        demand = {(0, 1): 0.123, (0, 2): 0.456, (1, 2): 0.789}
        exact = literal_plan(demand)
        rounded = literal_plan(demand, quantum=0.1)
        assert rounded.makespan >= exact.makespan - 1e-9

    def test_overhead_bounded_by_one_quantum_per_flow(self):
        """Rounding adds at most one quantum per flow on the critical path,
        so CCT grows by at most quantum × (flows on the bottleneck port)."""
        demand = {(0, j): 0.123 for j in range(1, 6)}
        quantum = 0.05
        exact = literal_plan(demand)
        rounded = literal_plan(demand, quantum=quantum)
        assert rounded.makespan <= exact.makespan + quantum * len(demand) + 1e-9


class TestGuaranteesSurviveQuantization:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=0.5, max_value=200.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from([0.01, 0.05, 0.2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_lemma_one_on_rounded_demand(self, entries, quantum):
        """The quantized schedule is Sunflow on the rounded demand, so
        Lemma 1 holds against the rounded Coflow's bound."""
        demand = {}
        for src, dst, mb in entries:
            demand[(src, dst)] = mb * MB
        coflow = Coflow.from_demand(1, demand)
        scheduler = ReferenceSunflowScheduler(delta=DELTA, quantum=quantum)
        times = coflow.processing_times(B)
        schedule = scheduler.schedule_demand_reference(PortReservationTable(), 1, times)
        rounded_times = {circuit: scheduler._quantize(p) for circuit, p in times.items()}
        # The rounded Coflow's circuit bound on both port sides.
        from collections import defaultdict

        loads = defaultdict(float)
        for (src, dst), p in rounded_times.items():
            loads[("in", src)] += p + DELTA
            loads[("out", dst)] += p + DELTA
        bound = max(loads.values())
        assert schedule.makespan <= 2 * bound * (1 + 1e-9)
        # One reservation per flow still holds (intra non-preemption).
        assert len(schedule.reservations) == coflow.num_flows
