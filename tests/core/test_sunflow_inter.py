"""Unit tests for Sunflow inter-Coflow scheduling (§4.2)."""

import pytest

from repro.core.bounds import circuit_lower_bound
from repro.core.coflow import Coflow
from repro.core.prt import PortReservationTable
from repro.core.sunflow import SunflowScheduler
from repro.units import GBPS, MB, MS

B = 1 * GBPS
DELTA = 10 * MS


def seconds(mb):
    return mb * MB * 8 / B


class TestPriorityIsolation:
    def test_high_priority_unaffected_by_low_priority(self):
        """The first-scheduled Coflow gets exactly its isolated schedule."""
        scheduler = SunflowScheduler(delta=DELTA)
        high = Coflow.from_demand(1, {(0, 0): 50 * MB, (1, 1): 30 * MB})
        low = Coflow.from_demand(2, {(0, 0): 100 * MB, (1, 0): 10 * MB})

        alone = scheduler.schedule_coflow(high, B, start_time=0.0)
        _, schedules = scheduler.schedule_coflows([high, low], B)
        assert schedules[1].makespan == pytest.approx(alone.makespan)

    def test_low_priority_fills_gaps(self):
        """A lower-priority Coflow on disjoint ports runs in parallel."""
        scheduler = SunflowScheduler(delta=DELTA)
        high = Coflow.from_demand(1, {(0, 0): 50 * MB})
        low = Coflow.from_demand(2, {(1, 1): 50 * MB})
        _, schedules = scheduler.schedule_coflows([high, low], B)
        assert schedules[2].makespan == pytest.approx(schedules[1].makespan)

    def test_low_priority_waits_on_shared_port(self):
        scheduler = SunflowScheduler(delta=DELTA)
        high = Coflow.from_demand(1, {(0, 0): 50 * MB})
        low = Coflow.from_demand(2, {(0, 1): 50 * MB})
        _, schedules = scheduler.schedule_coflows([high, low], B)
        # Low must wait for the full high reservation (δ + 0.4 s), then pay
        # its own setup.
        expected = (DELTA + seconds(50)) * 2
        assert schedules[2].completion_time == pytest.approx(expected)

    def test_shared_prt_has_no_conflicts(self):
        scheduler = SunflowScheduler(delta=DELTA)
        coflows = [
            Coflow.from_demand(1, {(0, 0): 20 * MB, (1, 1): 10 * MB}),
            Coflow.from_demand(2, {(0, 1): 15 * MB, (1, 0): 25 * MB}),
            Coflow.from_demand(3, {(0, 0): 5 * MB, (2, 2): 40 * MB}),
        ]
        prt, _ = scheduler.schedule_coflows(coflows, B)
        prt.validate()


class TestGapTruncation:
    def test_reservation_truncated_to_fit_gap(self):
        """Figure 2: C2 on a port shortly needed by C1 gets a shortened
        reservation and resumes later with a second setup."""
        scheduler = SunflowScheduler(delta=DELTA)
        prt = PortReservationTable()
        # Pre-existing (higher-priority) reservation on input 0 at [0.2, 0.5).
        prt.reserve(0, 9, start=0.2, end=0.5, coflow_id=1, setup=DELTA)
        demand = {(0, 1): seconds(50)}  # 0.4 s of data: doesn't fit in 0.2 s
        schedule = scheduler.schedule_demand(prt, 2, demand, start_time=0.0)
        assert len(schedule.reservations) == 2
        first, second = sorted(schedule.reservations, key=lambda r: r.start)
        assert first.end == pytest.approx(0.2)  # truncated at the C1 start
        assert second.start == pytest.approx(0.5)  # resumes after C1
        assert schedule.num_setups == 2  # the extra δ penalty
        # Data is conserved across the split.
        assert first.transmit_duration + second.transmit_duration == pytest.approx(
            seconds(50)
        )

    def test_gap_smaller_than_delta_skipped(self):
        """Algorithm 1 line 19: lm < δ means reserving transmits nothing."""
        scheduler = SunflowScheduler(delta=DELTA)
        prt = PortReservationTable()
        prt.reserve(0, 9, start=DELTA / 2, end=1.0, coflow_id=1, setup=DELTA / 2)
        schedule = scheduler.schedule_demand(prt, 2, {(0, 1): 0.1}, start_time=0.0)
        assert len(schedule.reservations) == 1
        assert schedule.reservations[0].start == pytest.approx(1.0)


class TestEstablishedCircuits:
    def test_established_circuit_skips_setup(self):
        scheduler = SunflowScheduler(delta=DELTA)
        prt = PortReservationTable()
        schedule = scheduler.schedule_demand(
            prt, 1, {(0, 1): 0.5}, start_time=2.0, established={(0, 1): (0.0, None)}
        )
        assert len(schedule.reservations) == 1
        reservation = schedule.reservations[0]
        assert reservation.setup == 0.0
        assert reservation.start == pytest.approx(2.0)
        assert schedule.makespan == pytest.approx(0.5)

    def test_established_only_applies_at_start_time(self):
        """A flow resuming later (after being blocked) still pays δ."""
        scheduler = SunflowScheduler(delta=DELTA)
        prt = PortReservationTable()
        prt.reserve(0, 9, start=2.0, end=3.0, coflow_id=7, setup=DELTA)
        schedule = scheduler.schedule_demand(
            prt, 1, {(0, 1): 0.5}, start_time=2.0, established={(0, 1): (0.0, None)}
        )
        # Input 0 busy at start -> circuit starts at 3.0 and must reconfigure.
        assert schedule.reservations[0].start == pytest.approx(3.0)
        assert schedule.reservations[0].setup == pytest.approx(DELTA)

    def test_established_is_per_circuit(self):
        scheduler = SunflowScheduler(delta=DELTA)
        prt = PortReservationTable()
        schedule = scheduler.schedule_demand(
            prt,
            1,
            {(0, 1): 0.5, (2, 3): 0.5},
            start_time=0.0,
            established={(0, 1): (0.0, None)},
        )
        setups = {(r.src, r.dst): r.setup for r in schedule.reservations}
        assert setups[(0, 1)] == 0.0
        assert setups[(2, 3)] == pytest.approx(DELTA)


class TestLemmaUnderInterference:
    def test_factor_two_does_not_hold_under_interference_but_schedule_is_valid(self):
        """Lemma 1 is an intra-Coflow guarantee; under inter-Coflow blocking
        a low-priority Coflow can exceed 2×TcL, but the schedule must still
        serve all demand with valid port usage."""
        scheduler = SunflowScheduler(delta=DELTA)
        blocker = Coflow.from_demand(1, {(0, 0): 1000 * MB})
        victim = Coflow.from_demand(2, {(0, 0): 1 * MB})
        prt, schedules = scheduler.schedule_coflows([blocker, victim], B)
        prt.validate()
        lower = circuit_lower_bound(victim, B, DELTA)
        assert schedules[2].makespan > 2 * lower  # blocked far past its bound
        served = sum(r.transmit_duration for r in schedules[2].reservations)
        assert served == pytest.approx(seconds(1))
