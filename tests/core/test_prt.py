"""Tests for the Port Reservation Table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prt import (
    TIME_EPS,
    PortConflictError,
    PortReservationTable,
    Reservation,
)


def make_prt():
    return PortReservationTable()


class TestReservation:
    def test_transmit_window(self):
        r = Reservation(start=1.0, end=3.0, src=0, dst=1, coflow_id=1, setup=0.5)
        assert r.duration == pytest.approx(2.0)
        assert r.transmit_start == pytest.approx(1.5)
        assert r.transmit_duration == pytest.approx(1.5)

    def test_transmitted_before(self):
        r = Reservation(start=1.0, end=3.0, src=0, dst=1, coflow_id=1, setup=0.5)
        assert r.transmitted_before(1.2) == 0.0  # still in setup
        assert r.transmitted_before(2.0) == pytest.approx(0.5)
        assert r.transmitted_before(10.0) == pytest.approx(1.5)  # capped at end

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Reservation(start=1.0, end=1.0, src=0, dst=1, coflow_id=1, setup=0.0)

    def test_setup_longer_than_reservation_rejected(self):
        with pytest.raises(ValueError):
            Reservation(start=0.0, end=1.0, src=0, dst=1, coflow_id=1, setup=2.0)


class TestReserve:
    def test_basic_reserve_and_query(self):
        prt = make_prt()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.1)
        assert not prt.input_free_at(0, 0.5)
        assert not prt.output_free_at(1, 0.5)
        assert prt.input_free_at(1, 0.5)
        assert prt.output_free_at(0, 0.5)

    def test_half_open_semantics(self):
        prt = make_prt()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        # Port is free exactly at the end instant and a new reservation may
        # start there.
        assert prt.input_free_at(0, 1.0)
        prt.reserve(0, 2, start=1.0, end=2.0, coflow_id=1, setup=0.0)
        prt.validate()

    def test_overlap_on_input_rejected(self):
        prt = make_prt()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        with pytest.raises(PortConflictError):
            prt.reserve(0, 2, start=0.5, end=1.5, coflow_id=1, setup=0.0)

    def test_overlap_on_output_rejected(self):
        prt = make_prt()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        with pytest.raises(PortConflictError):
            prt.reserve(2, 1, start=0.5, end=1.5, coflow_id=1, setup=0.0)

    def test_containing_overlap_rejected(self):
        prt = make_prt()
        prt.reserve(0, 1, start=1.0, end=2.0, coflow_id=1, setup=0.0)
        with pytest.raises(PortConflictError):
            prt.reserve(0, 1, start=0.0, end=3.0, coflow_id=1, setup=0.0)

    def test_disjoint_circuits_coexist(self):
        prt = make_prt()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        prt.reserve(1, 0, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        prt.validate()
        assert len(prt) == 2


class TestQueries:
    def test_next_reserved_time(self):
        prt = make_prt()
        prt.reserve(0, 1, start=5.0, end=6.0, coflow_id=1, setup=0.0)
        prt.reserve(2, 3, start=2.0, end=3.0, coflow_id=1, setup=0.0)
        # For circuit (0, 3): input 0 reserved at 5, output 3 at 2.
        assert prt.next_reserved_time(0, 3, 0.0) == pytest.approx(2.0)
        assert prt.next_reserved_time(0, 3, 2.5) == pytest.approx(5.0)

    def test_next_reserved_time_none(self):
        prt = make_prt()
        assert prt.next_reserved_time(0, 1, 0.0) == float("inf")

    def test_next_release_after(self):
        prt = make_prt()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        prt.reserve(2, 3, start=0.0, end=2.0, coflow_id=1, setup=0.0)
        assert prt.next_release_after(0.0) == pytest.approx(1.0)
        assert prt.next_release_after(1.0) == pytest.approx(2.0)
        assert prt.next_release_after(2.0) is None

    def test_makespan(self):
        prt = make_prt()
        assert prt.makespan() == 0.0
        prt.reserve(0, 1, start=0.0, end=3.5, coflow_id=1, setup=0.0)
        assert prt.makespan() == pytest.approx(3.5)

    def test_iteration_preserves_insertion_order(self):
        prt = make_prt()
        first = prt.reserve(0, 1, start=5.0, end=6.0, coflow_id=1, setup=0.0)
        second = prt.reserve(2, 3, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        assert list(prt) == [first, second]

    def test_next_reserved_time_epsilon_boundary(self):
        """A reservation starting within TIME_EPS *before* ``t`` still
        counts as the next reserved time: the sub-epsilon gap ahead of it
        must never be mistaken for usable port time."""
        prt = make_prt()
        prt.reserve(0, 1, start=1.0, end=2.0, coflow_id=1, setup=0.0)
        t = 1.0 + TIME_EPS / 2
        assert prt.next_reserved_time(0, 1, t) == pytest.approx(1.0, abs=TIME_EPS)
        # Strictly past the tolerance the reservation is behind us.
        assert prt.next_reserved_time(0, 1, 1.0 + 3 * TIME_EPS) == float("inf")

    def test_release_of_block(self):
        prt = make_prt()
        prt.reserve(0, 1, start=1.0, end=4.0, coflow_id=1, setup=0.0)
        prt.reserve(2, 3, start=1.0, end=2.0, coflow_id=1, setup=0.0)
        # Circuit (0, 3): both ports have a blocker starting at 1.0; the
        # output one releases first.
        end, on_input = prt.release_of_block(0, 3, 0.5, 1.0)
        assert end == pytest.approx(2.0)
        assert on_input is False
        # Circuit (0, 1): only the input blocker matters.
        end, on_input = prt.release_of_block(0, 5, 0.5, 1.0)
        assert end == pytest.approx(4.0)
        assert on_input is True
        # No blocker on either port.
        end, on_input = prt.release_of_block(7, 8, 0.5, 1.0)
        assert end == float("inf")


class TestCheckpointRollback:
    def test_rollback_undoes_suffix(self):
        prt = make_prt()
        kept = prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        token = prt.checkpoint()
        prt.reserve(0, 1, start=2.0, end=3.0, coflow_id=2, setup=0.0)
        prt.reserve(4, 5, start=0.0, end=9.0, coflow_id=2, setup=0.0)
        assert prt.rollback(token) == 2
        assert list(prt) == [kept]
        assert prt.makespan() == pytest.approx(1.0)
        assert prt.input_free_at(4, 5.0)
        prt.validate()

    def test_rollback_then_reserve_again(self):
        prt = make_prt()
        token = prt.checkpoint()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        prt.rollback(token)
        # The undone interval is free again.
        prt.reserve(0, 1, start=0.5, end=1.5, coflow_id=2, setup=0.0)
        prt.validate()

    def test_rollback_rejects_bad_token(self):
        prt = make_prt()
        with pytest.raises(ValueError):
            prt.rollback(5)
        with pytest.raises(ValueError):
            prt.rollback(-1)

    def test_replay_reinserts_cached_reservations(self):
        prt = make_prt()
        token = prt.checkpoint()
        made = [
            prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.1),
            prt.reserve(2, 3, start=0.5, end=2.0, coflow_id=1, setup=0.1),
        ]
        prt.rollback(token)
        prt.replay(made)
        assert list(prt) == made
        prt.validate()

    def test_replay_still_checks_conflicts(self):
        prt = make_prt()
        stale = Reservation(start=0.0, end=2.0, src=0, dst=1, coflow_id=1, setup=0.0)
        prt.reserve(0, 9, start=1.0, end=3.0, coflow_id=2, setup=0.0)
        with pytest.raises(PortConflictError):
            prt.replay([stale])

    def test_clear_empties_everything(self):
        prt = make_prt()
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=0.0)
        prt.reserve(2, 3, start=0.0, end=2.0, coflow_id=1, setup=0.0)
        prt.clear()
        assert len(prt) == 0
        assert prt.makespan() == 0.0
        assert prt.next_release_after(0.0) is None
        assert prt.input_free_at(0, 0.5)
        # A cleared table accepts fresh reservations and a full rollback.
        token = prt.checkpoint()
        assert token == 0
        prt.reserve(0, 1, start=0.0, end=1.0, coflow_id=2, setup=0.0)
        prt.validate()


@st.composite
def reservation_requests(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    requests = []
    for _ in range(count):
        src = draw(st.integers(min_value=0, max_value=3))
        dst = draw(st.integers(min_value=0, max_value=3))
        start = draw(st.floats(min_value=0.0, max_value=10.0))
        length = draw(st.floats(min_value=0.01, max_value=3.0))
        requests.append((src, dst, start, start + length))
    return requests


class TestPrtProperties:
    @given(reservation_requests())
    @settings(max_examples=100, deadline=None)
    def test_accepted_reservations_never_overlap(self, requests):
        """Whatever subset of requests the PRT accepts, the port constraint
        holds; rejected requests raise PortConflictError and change nothing."""
        prt = make_prt()
        accepted = 0
        for src, dst, start, end in requests:
            before = len(prt)
            try:
                prt.reserve(src, dst, start=start, end=end, coflow_id=1, setup=0.0)
                accepted += 1
            except PortConflictError:
                assert len(prt) == before
        prt.validate()
        assert len(prt) == accepted
