"""Multi-plane Sunflow (future work of §6): first-fit over K parallel
switch planes, each a core of :class:`~repro.core.multicore.MultiCoreSunflowScheduler`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import circuit_lower_bound
from repro.core.coflow import Coflow
from repro.core.multicore import MultiCoreSunflowScheduler, uniform_cores
from repro.core.prt import CoreReservationTables
from repro.core.sunflow import SunflowScheduler
from repro.units import GBPS, MB, MS

B = 1 * GBPS
DELTA = 10 * MS


def planes_scheduler(planes, delta=DELTA):
    return MultiCoreSunflowScheduler(uniform_cores(planes, B, delta))


def plan(coflow, planes, delta=DELTA):
    return planes_scheduler(planes, delta).schedule_coflow(coflow, "first-fit")


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            planes_scheduler(0)
        with pytest.raises(ValueError):
            planes_scheduler(2, delta=-1.0)

    def test_table_count_checked(self):
        scheduler = planes_scheduler(3)
        with pytest.raises(ValueError, match="expected 3"):
            scheduler.schedule_demand(CoreReservationTables.fresh(2), 1, {(0, 1): 1.0})


class TestSinglePlaneEquivalence:
    def test_one_plane_matches_single_switch_sunflow(self, figure1_coflow):
        """k = 1 degenerates to the original algorithm exactly."""
        single = SunflowScheduler(delta=DELTA).schedule_coflow(
            figure1_coflow, B, start_time=0.0
        )
        multi = plan(figure1_coflow, planes=1)
        assert multi.makespan == pytest.approx(single.makespan)
        single_key = sorted(
            (r.start, r.end, r.src, r.dst) for r in single.reservations
        )
        multi_key = sorted(
            (p.reservation.start, p.reservation.end, p.reservation.src, p.reservation.dst)
            for p in multi.reservations
        )
        assert single_key == multi_key


class TestParallelism:
    def test_incast_splits_across_planes(self):
        """An in-cast serializes on one switch; with k planes the receiver
        has k transceivers, so CCT shrinks by ~k."""
        coflow = Coflow.from_demand(1, {(i, 9): 50 * MB for i in range(4)})
        one = plan(coflow, planes=1)
        two = plan(coflow, planes=2)
        four = plan(coflow, planes=4)
        assert two.makespan < one.makespan
        assert four.makespan < two.makespan
        assert four.makespan == pytest.approx(one.makespan / 4, rel=0.05)

    def test_reservations_actually_use_multiple_planes(self):
        coflow = Coflow.from_demand(1, {(i, 9): 50 * MB for i in range(4)})
        schedule = plan(coflow, planes=4)
        assert len(schedule.per_core_counts()) == 4

    def test_permutation_gains_nothing(self):
        """Demand with no port contention cannot benefit from extra planes."""
        coflow = Coflow.from_demand(1, {(i, i + 4): 50 * MB for i in range(4)})
        one = plan(coflow, planes=1)
        four = plan(coflow, planes=4)
        assert four.makespan == pytest.approx(one.makespan)

    def test_more_planes_never_hurt(self, figure1_coflow):
        previous = plan(figure1_coflow, planes=1).makespan
        for planes in (2, 3, 4):
            current = plan(figure1_coflow, planes=planes).makespan
            assert current <= previous + 1e-9
            previous = current


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=0.5, max_value=150.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_demand_conserved_and_planes_valid(self, entries, planes):
        demand = {}
        for src, dst, mb in entries:
            demand[(src, dst)] = mb * MB
        coflow = Coflow.from_demand(1, demand)
        scheduler = planes_scheduler(planes)
        tables = scheduler.new_tables()
        schedule = scheduler.schedule_demand(tables, 1, coflow.demand())
        for prt in tables:
            prt.validate()
        served = {}
        for item in schedule.reservations:
            r = item.reservation
            served[(r.src, r.dst)] = served.get((r.src, r.dst), 0.0) + r.transmit_duration
            assert 0 <= item.core < planes
        for circuit, p in coflow.processing_times(B).items():
            assert served.get(circuit, 0.0) == pytest.approx(p, rel=1e-6, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.5, max_value=100.0),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_k_planes_beat_lemma_bound_scaled(self, entries):
        """CCT on k planes is never worse than the single-switch 2×TcL cap
        (and usually far better for contended demand)."""
        demand = {}
        for src, dst, mb in entries:
            demand[(src, dst)] = mb * MB
        coflow = Coflow.from_demand(1, demand)
        bound = 2 * circuit_lower_bound(coflow, B, DELTA)
        for planes in (2, 3):
            schedule = plan(coflow, planes=planes)
            assert schedule.makespan <= bound * (1 + 1e-9)


class TestInterCoflow:
    def test_priority_isolation_across_planes(self):
        scheduler = planes_scheduler(2)
        high = Coflow.from_demand(1, {(0, 0): 50 * MB})
        low = Coflow.from_demand(2, {(0, 1): 50 * MB})
        alone = scheduler.schedule_coflow(high, "first-fit")
        _, schedules = scheduler.schedule_coflows([high, low], "first-fit")
        assert schedules[1].makespan == pytest.approx(alone.makespan)
        # With two planes, the low-priority coflow uses the second plane's
        # transceiver on port 0 and is not delayed at all.
        assert schedules[2].makespan == pytest.approx(alone.makespan)

