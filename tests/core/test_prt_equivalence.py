"""Differential fuzz: array-backed PRT vs the retained reference.

:class:`~repro.core.prt.PortReservationTable` keeps per-port
struct-of-arrays boundary tables and answers hot queries by bisecting
raw doubles; :class:`~repro.core.prt_reference.ReferencePortReservationTable`
is the straightforward object-list implementation it replaced.  The two
must be observably identical: same accepted/rejected reservations, same
conflict errors, same query answers, same journal/checkpoint/rollback
semantics.  These tests drive both through identical random
reserve / query / checkpoint / rollback / replay sequences and compare
every outcome exactly.
"""

import os
import random
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import backend
from repro.core.prt import (
    PortConflictError,
    PortReservationTable,
    native_transactions_available,
)
from repro.core.prt_reference import ReferencePortReservationTable
from repro.core.sunflow import SunflowScheduler


def res_key(reservation):
    return (
        reservation.start,
        reservation.end,
        reservation.src,
        reservation.dst,
        reservation.coflow_id,
        reservation.setup,
    )


def assert_same_state(fast, ref, rng, num_ports, horizon):
    """Exhaustively compare the two tables' observable state."""
    assert len(fast) == len(ref)
    assert sorted(map(res_key, fast)) == sorted(map(res_key, ref))
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
        for fast_res, ref_res in (
            (fast.input_reservation_at(p, t), ref.input_reservation_at(p, t)),
            (fast.output_reservation_at(q, t), ref.output_reservation_at(q, t)),
        ):
            assert (fast_res is None) == (ref_res is None)
            if fast_res is not None:
                assert res_key(fast_res) == res_key(ref_res)
        assert [res_key(r) for r in fast.input_releases_after(p, t)] == [
            res_key(r) for r in ref.input_releases_after(p, t)
        ]
        assert [res_key(r) for r in fast.output_releases_after(q, t)] == [
            res_key(r) for r in ref.output_releases_after(q, t)
        ]
        assert [res_key(r) for r in fast.reservations_for_input(p)] == [
            res_key(r) for r in ref.reservations_for_input(p)
        ]
        assert [res_key(r) for r in fast.reservations_for_output(q)] == [
            res_key(r) for r in ref.reservations_for_output(q)
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

    def test_rollback_overflow_ports_fall_back_to_python(self, monkeypatch):
        """Port indexes beyond the native kernel's int32 hashing range:
        the kernel refuses before mutating anything and the dispatcher
        finishes the rollback on the Python twin."""
        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        big = 2**40
        try_reserve(fast, ref, big, 0, 0.0, 1.0, 1, 0.1)
        token_fast, token_ref = fast.checkpoint(), ref.checkpoint()
        for step in range(2, 8):
            try_reserve(fast, ref, big, 0, float(step), step + 0.5, step, 0.1)
        monkeypatch.setenv("REPRO_KERNEL", "native")
        assert fast.rollback(token_fast) == ref.rollback(token_ref)
        monkeypatch.delenv("REPRO_KERNEL")
        assert sorted(map(res_key, fast)) == sorted(map(res_key, ref))
        fast.validate()

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
# Replan-transaction fuzz: batched rollback/replay as whole transactions,
# interleaved with journal compaction and (when the extension is built)
# backend / layout-gate churn.  The native kernels promise bitwise
# identity with the Python twins, so mixing the two mid-run on the SAME
# table must be unobservable — that is exactly what the churn mode does.
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
    st.tuples(st.just("churn")),
)

_TXN_MODES = ["python"] + (
    ["native", "churn"] if native_transactions_available() else []
)

#: Layout churn cycle: kernel on, kernel off via env, kernel "stale"
#: (the layout-version gate nulls the module, env still asks for it).
_CHURN_STATES = (("native", True), ("python", True), ("native", False))


class TestTransactionFuzz:
    @pytest.mark.parametrize("mode", _TXN_MODES)
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(_TXN_OP, min_size=15, max_size=90))
    def test_batched_transactions_with_compaction(self, mode, ops):
        saved_env = os.environ.get("REPRO_KERNEL")
        saved_resolver = (backend._probe, backend._resolved, backend._warned)
        backend._warned = True  # churn mutes the fallback warning
        os.environ["REPRO_KERNEL"] = "python" if mode == "churn" else mode
        try:
            self._run(mode, ops)
        finally:
            backend._probe, backend._resolved, backend._warned = saved_resolver
            if saved_env is None:
                os.environ.pop("REPRO_KERNEL", None)
            else:
                os.environ["REPRO_KERNEL"] = saved_env

    @staticmethod
    def _run(mode, ops):
        real_native = backend._probe()
        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        tokens = []
        accepted = []
        churn = 0
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
                # Journal compaction: the incremental replanner clears a
                # semantically-empty table in place; checkpoints taken
                # before the compaction are dead with it.
                fast.clear()
                ref.clear()
                tokens.clear()
                accepted.clear()
            elif kind == "churn" and mode == "churn":
                env, kernel_on = _CHURN_STATES[churn % len(_CHURN_STATES)]
                churn += 1
                os.environ["REPRO_KERNEL"] = env
                extension = real_native if kernel_on else None
                backend._probe = lambda: extension
                backend._resolved = {}
            if step % 30 == 29:
                rng = random.Random(step)
                assert_same_state(fast, ref, rng, num_ports=6, horizon=9.5)
        assert_same_state(
            fast, ref, random.Random(len(ops)), num_ports=6, horizon=9.5
        )


class TestTransactionFallback:
    def test_missing_kernel_falls_back_with_one_warning(
        self, monkeypatch, native_absent
    ):
        """``REPRO_KERNEL=native`` without the extension: rollback and
        batched replay run the Python twins, warning exactly once."""
        monkeypatch.setenv("REPRO_KERNEL", "native")
        assert not native_transactions_available()

        fast = PortReservationTable()
        ref = ReferencePortReservationTable()
        for step in range(6):
            try_reserve(fast, ref, step % 3, (step + 1) % 3, float(step), step + 0.9, step, 0.05)
        token_fast, token_ref = fast.checkpoint(), ref.checkpoint()
        batch = list(fast)[:3]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fast.replay(batch[:0])  # empty: no dispatch, no warning
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
            assert fast.rollback(token_fast) == ref.rollback(token_ref)
        native_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(native_warnings) == 1
        assert "pure-Python planner and PRT transactions" in str(
            native_warnings[0].message
        )
        assert sorted(map(res_key, fast)) == sorted(map(res_key, ref))

        # Once per process, not once per call, and shared with the planner.
        with warnings.catch_warnings(record=True) as again:
            warnings.simplefilter("always")
            fast.rollback(fast.checkpoint())
            SunflowScheduler().schedule_demand(
                PortReservationTable(), 9, {(0, 1): 1.0, (1, 0): 0.5}
            )
        assert not [w for w in again if issubclass(w.category, RuntimeWarning)]
