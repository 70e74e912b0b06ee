"""Differential fuzz: array-backed PRT vs the retained reference.

:class:`~repro.core.prt.PortReservationTable` keeps per-port
struct-of-arrays boundary tables and answers hot queries by bisecting
raw doubles; :class:`~tests.oracles.prt_reference.ReferencePortReservationTable`
is the straightforward object-list implementation it replaced.  The two
must be observably identical: same accepted/rejected reservations, same
conflict errors, same query answers, same journal/checkpoint/rollback
semantics.  These tests drive both through identical random
reserve / query / checkpoint / rollback / replay sequences and compare
every outcome exactly.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.prt import PortConflictError, PortReservationTable
from tests.oracles.prt_reference import ReferencePortReservationTable


def res_key(reservation):
    return (
        reservation.start,
        reservation.end,
        reservation.src,
        reservation.dst,
        reservation.coflow_id,
        reservation.setup,
    )


def release_event(reservation):
    return (reservation.end, reservation.src, reservation.dst)


def assert_same_state(fast, ref, rng, num_ports, horizon):
    """Exhaustively compare the two tables' observable state."""
    assert len(fast) == len(ref)
    # The journal: same reservations in the same insertion order.
    assert list(map(res_key, fast)) == list(map(res_key, ref))
    assert fast.makespan() == ref.makespan()
    assert fast.next_release_after(-1.0) == ref.next_release_after(-1.0)
    for _ in range(25):
        t = rng.uniform(-0.5, horizon)
        p = rng.randrange(num_ports)
        q = rng.randrange(num_ports)
        assert fast.next_release_after(t) == ref.next_release_after(t)
        assert fast.input_free_at(p, t) == ref.input_free_at(p, t)
        assert fast.output_free_at(q, t) == ref.output_free_at(q, t)
        assert fast.next_reserved_time(p, q, t) == ref.next_reserved_time(p, q, t)
        for fast_end, ref_res in (
            (fast.input_covering_end(p, t), ref.input_reservation_at(p, t)),
            (fast.output_covering_end(q, t), ref.output_reservation_at(q, t)),
        ):
            assert fast_end == (None if ref_res is None else ref_res.end)
        # The planner's release-event seeds, read off the reference's
        # per-port timelines as ``(end, src, dst)``; at ``-inf`` they list
        # each port's whole timeline.
        for at in (t, float("-inf")):
            assert fast.release_events_for_input(p, at) == [
                release_event(r) for r in ref.input_releases_after(p, at)
            ]
            assert fast.release_events_for_output(q, at) == [
                release_event(r) for r in ref.output_releases_after(q, at)
            ]
    fast.validate()
    ref.validate()


def try_reserve(fast, ref, src, dst, start, end, coflow_id, setup):
    """Apply one reserve to both tables; outcomes must agree exactly."""
    fast_res = fast_err = None
    try:
        fast_res = fast.reserve(src, dst, start, end, coflow_id, setup)
    except PortConflictError as exc:
        fast_err = exc
    ref_res = ref_err = None
    try:
        ref_res = ref.reserve(src, dst, start, end, coflow_id, setup)
    except PortConflictError as exc:
        ref_err = exc
    assert (fast_err is None) == (ref_err is None), (fast_err, ref_err)
    if fast_res is not None:
        assert res_key(fast_res) == res_key(ref_res)
    return fast_res


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_reserve_checkpoint_rollback_replay(self, seed):
        rng = random.Random(seed)
        num_ports = 8
        horizon = 10.0
        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        # Stack of (fast_token, ref_token, journal snapshot) so rollbacks
        # and replays target corresponding states in both tables.
        tokens = []
        accepted = []

        for step in range(400):
            op = rng.random()
            if op < 0.70:
                src = rng.randrange(num_ports)
                dst = rng.randrange(num_ports)
                start = rng.uniform(0, horizon)
                length = rng.uniform(0.01, 1.5)
                setup = rng.uniform(0, min(0.2, length))
                res = try_reserve(
                    fast, ref, src, dst, start, start + length, step, setup
                )
                if res is not None:
                    accepted.append(res)
            elif op < 0.80:
                tokens.append((fast.checkpoint(), ref.checkpoint(), len(accepted)))
            elif op < 0.90 and tokens:
                take = rng.randrange(len(tokens))
                fast_token, ref_token, journal_len = tokens[take]
                del tokens[take:]
                assert fast.rollback(fast_token) == ref.rollback(ref_token)
                del accepted[journal_len:]
            elif accepted:
                # Re-play a random slice of previously accepted
                # reservations; after the rollbacks above some still fit
                # and some now conflict — behavior must match exactly.
                # Replay is atomic in both implementations: a conflicting
                # batch leaves the table untouched.
                sample = rng.sample(accepted, min(len(accepted), 4))
                fast_err = ref_err = None
                try:
                    fast.replay(sample)
                except PortConflictError as exc:
                    fast_err = exc
                try:
                    ref.replay(sample)
                except PortConflictError as exc:
                    ref_err = exc
                assert (fast_err is None) == (ref_err is None)
            if step % 50 == 49:
                assert_same_state(fast, ref, rng, num_ports, horizon)

        assert_same_state(fast, ref, rng, num_ports, horizon)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_dense_same_port_contention(self, seed):
        """Hammer a tiny port space so nearly every attempt probes the
        overlap/tolerance edges of both implementations."""
        rng = random.Random(seed)
        num_ports = 2
        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        for step in range(300):
            src = rng.randrange(num_ports)
            dst = rng.randrange(num_ports)
            start = rng.choice([rng.uniform(0, 3), round(rng.uniform(0, 3), 1)])
            length = rng.choice([0.1, 0.25, rng.uniform(0.01, 0.5)])
            try_reserve(fast, ref, src, dst, start, start + length, step, 0.01)
        assert_same_state(fast, ref, rng, num_ports, horizon=3.5)

    def test_conflict_errors_name_the_same_blocker(self):
        """The array table's lazily materialized error path must surface
        the same offending reservation the reference reports."""
        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        try_reserve(fast, ref, 0, 1, 1.0, 2.0, 1, 0.1)
        with pytest.raises(PortConflictError) as fast_exc:
            fast.reserve(0, 2, 1.5, 2.5, 2, 0.1)
        with pytest.raises(PortConflictError) as ref_exc:
            ref.reserve(0, 2, 1.5, 2.5, 2, 0.1)
        assert str(fast_exc.value) == str(ref_exc.value)

    def test_rollback_restores_identical_state(self):
        rng = random.Random(3)
        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        def random_reserve(step):
            start = rng.uniform(0, 5)
            end = start + rng.uniform(0.05, 1.0)
            try_reserve(
                fast, ref, rng.randrange(4), rng.randrange(4), start, end, step, 0.02
            )

        for step in range(40):
            random_reserve(step)
        token_fast, token_ref = fast.checkpoint(), ref.checkpoint()
        before = sorted(map(res_key, fast))
        for step in range(40, 70):
            random_reserve(step)
        assert fast.rollback(token_fast) == ref.rollback(token_ref)
        assert sorted(map(res_key, fast)) == before
        assert sorted(map(res_key, ref)) == before
        assert_same_state(fast, ref, rng, num_ports=4, horizon=6.0)


# ----------------------------------------------------------------------
# Transaction fuzz: batched rollback/replay as whole transactions,
# interleaved with clearing the table.
# ----------------------------------------------------------------------

_PORT_S = st.integers(min_value=0, max_value=5)
_START_S = st.floats(
    min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False
)
_LEN_S = st.floats(
    min_value=0.01, max_value=1.2, allow_nan=False, allow_infinity=False
)

_TXN_OP = st.one_of(
    st.tuples(st.just("reserve"), _PORT_S, _PORT_S, _START_S, _LEN_S),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("rollback"), st.integers(min_value=0, max_value=7)),
    st.tuples(
        st.just("replay"),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=2, max_value=6),
    ),
    st.tuples(st.just("compact")),
)


class TestTransactionFuzz:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(_TXN_OP, min_size=15, max_size=90))
    def test_batched_transactions_with_compaction(self, ops):
        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        tokens = []
        accepted = []
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "reserve":
                _, src, dst, start, length = op
                res = try_reserve(
                    fast,
                    ref,
                    src,
                    dst,
                    start,
                    start + length,
                    step,
                    min(0.05, length / 2),
                )
                if res is not None:
                    accepted.append(res)
            elif kind == "checkpoint":
                tokens.append(
                    (fast.checkpoint(), ref.checkpoint(), len(accepted))
                )
            elif kind == "rollback":
                if tokens:
                    take = op[1] % len(tokens)
                    fast_token, ref_token, journal_len = tokens[take]
                    del tokens[take:]
                    assert fast.rollback(fast_token) == ref.rollback(ref_token)
                    del accepted[journal_len:]
            elif kind == "replay":
                if len(accepted) >= 2:
                    lo = op[1] % len(accepted)
                    batch = accepted[lo : lo + op[2]]
                    if len(batch) >= 2:
                        fast_err = ref_err = None
                        try:
                            fast.replay(batch)
                        except PortConflictError as exc:
                            fast_err = exc
                        try:
                            ref.replay(batch)
                        except PortConflictError as exc:
                            ref_err = exc
                        assert (fast_err is None) == (ref_err is None)
            elif kind == "compact":
                # Clearing empties the table in place; checkpoints taken
                # before it are dead with it.
                fast.clear()
                ref.clear()
                tokens.clear()
                accepted.clear()
            if step % 30 == 29:
                rng = random.Random(step)
                assert_same_state(fast, ref, rng, num_ports=6, horizon=9.5)
        assert_same_state(
            fast, ref, random.Random(len(ops)), num_ports=6, horizon=9.5
        )

