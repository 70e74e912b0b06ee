"""Differential suite for the compiled PRT transaction kernels.

``repro._native`` carries four replan-transaction entry points —
``prt_rollback``, ``prt_replay``, ``transform_continuation``, and
``schedule_demand_packed`` — each promising *bitwise* identity with the
pure-Python twin it shadows (``_rollback_python``, ``_replay_python``,
``InterCoflowSimulator._transform_continuation``, and the
``_pack_demand`` + ``schedule_demand`` path).  Every comparison here is
exact: ``array.tobytes()`` for the per-port buffers (true bit patterns,
not float equality) and ``float.hex()`` for reservation fields.

The decline contract is load-bearing and tested directly: a kernel that
cannot finish a transaction (foreign reservation types, ports outside
the int32 hashing range, a replay conflict) must refuse *before any
mutation*, so the dispatcher's fall-through to the Python twin sees an
intact table and reproduces the byte-identical outcome — including the
exact :class:`PortConflictError` text on conflicting replays.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro import backend
from repro.core.demand import PackedDemand
from repro.core.prt import (
    TIME_EPS,
    PortConflictError,
    PortReservationTable,
    Reservation,
    native_transactions_available,
)
from repro.core.sunflow import SunflowScheduler
from repro.backend import use_backend

needs_native = pytest.mark.skipif(
    not native_transactions_available(),
    reason="repro._native is not built (python setup.py build_ext --inplace)",
)

#: The compiled extension, called directly by the kernel-level tests.
_native = (
    importlib.import_module("repro._native")
    if native_transactions_available()
    else None
)


def _bitwise_state(prt):
    """The table's complete storage, bit-for-bit."""
    return (
        {p: a.tobytes() for p, a in prt._in_bounds.items()},
        {p: a.tobytes() for p, a in prt._in_refs.items()},
        {p: a.tobytes() for p, a in prt._out_bounds.items()},
        {p: a.tobytes() for p, a in prt._out_refs.items()},
        prt._ends.tobytes(),
        [_res_hex(r) for r in prt._reservations],
    )


def _res_hex(r):
    return (r.src, r.dst, r.coflow_id, r.start.hex(), r.end.hex(), r.setup.hex())


def _twin_tables(seed, steps=70, ports=6):
    """Two tables built by the identical reserve sequence (so their
    storage is bitwise equal) plus the accepted reservations in journal
    order."""
    rng = random.Random(seed)
    a = PortReservationTable()
    b = PortReservationTable()
    accepted = []
    for step in range(steps):
        src = rng.randrange(ports)
        dst = rng.randrange(ports)
        start = rng.uniform(0, 6)
        end = start + rng.uniform(0.02, 1.0)
        res = None
        for table in (a, b):
            try:
                res = table.reserve(src, dst, start, end, step, 0.01)
            except PortConflictError:
                res = None
        if res is not None:
            accepted.append(res)
    assert _bitwise_state(a) == _bitwise_state(b)
    return a, b, accepted


@needs_native
class TestRollbackKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.8, 1.0])
    def test_bitwise_differential(self, seed, fraction):
        a, b, _ = _twin_tables(seed)
        token = int(len(a._reservations) * fraction)
        undone_native = _native.prt_rollback(a, token)
        undone_python = b._rollback_python(token)
        assert undone_native == undone_python
        assert _bitwise_state(a) == _bitwise_state(b)
        a.validate()

    def test_small_suffix_matches_per_item_path(self):
        """The Python twin switches strategy at 4 undone items; the kernel
        must be bitwise-identical on both sides of that threshold."""
        for undone in (1, 2, 4, 5, 9):
            a, b, _ = _twin_tables(17, steps=40)
            token = max(0, len(a._reservations) - undone)
            assert _native.prt_rollback(a, token) == b._rollback_python(token)
            assert _bitwise_state(a) == _bitwise_state(b)

    def test_invalid_token_message_matches_python(self):
        a, b, _ = _twin_tables(5, steps=12)
        for token in (-1, len(a._reservations) + 3):
            with pytest.raises(ValueError) as native_exc:
                _native.prt_rollback(a, token)
            with pytest.raises(ValueError) as python_exc:
                b._rollback_python(token)
            assert str(native_exc.value) == str(python_exc.value)
        # Neither raise mutated anything.
        assert _bitwise_state(a) == _bitwise_state(b)

    def test_noop_rollback_returns_zero(self):
        a, _, _ = _twin_tables(3, steps=10)
        before = _bitwise_state(a)
        assert _native.prt_rollback(a, len(a._reservations)) == 0
        assert _bitwise_state(a) == before


@needs_native
class TestReplayKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bitwise_differential(self, seed):
        """Roll both twins back, replay the undone suffix: the kernel's
        one-call merge must reproduce the Python twin's staging exactly."""
        a, b, _ = _twin_tables(seed)
        token = len(a._reservations) * 2 // 3
        batch = list(a._reservations[token:])
        if len(batch) < 2:
            pytest.skip("degenerate trace: suffix too small to batch")
        a._rollback_python(token)
        b._rollback_python(token)
        assert _native.prt_replay(a, batch, TIME_EPS) is True
        b._replay_python(batch)
        assert _bitwise_state(a) == _bitwise_state(b)
        a.validate()

    def test_interleaved_merge_not_just_tail(self):
        """Force the merge path: replayed intervals land *between*
        existing ones on the same port."""
        a = PortReservationTable()
        b = PortReservationTable()
        for table in (a, b):
            table.reserve(0, 1, 0.0, 1.0, 1, 0.1)
            table.reserve(0, 1, 4.0, 5.0, 2, 0.1)
        batch = [
            Reservation(start=1.5, end=2.0, src=0, dst=1, coflow_id=3, setup=0.05),
            Reservation(start=2.5, end=3.5, src=0, dst=1, coflow_id=4, setup=0.05),
        ]
        assert _native.prt_replay(a, batch, TIME_EPS) is True
        b._replay_python(batch)
        assert _bitwise_state(a) == _bitwise_state(b)

    def test_conflict_declines_before_mutation(self):
        """A conflicting batch: the kernel returns False with the table
        untouched, and the dispatcher's fall-through raises the Python
        twin's byte-identical error."""
        a = PortReservationTable()
        a.reserve(0, 1, 1.0, 2.0, 1, 0.1)
        before = _bitwise_state(a)
        batch = [
            Reservation(start=2.5, end=3.0, src=0, dst=2, coflow_id=2, setup=0.05),
            Reservation(start=2.8, end=3.5, src=0, dst=3, coflow_id=3, setup=0.05),
        ]
        assert _native.prt_replay(a, batch, TIME_EPS) is False
        assert _bitwise_state(a) == before
        with pytest.raises(PortConflictError) as twin_exc:
            a._replay_python(batch)
        assert _bitwise_state(a) == before
        with use_backend("native"):
            with pytest.raises(PortConflictError) as dispatch_exc:
                a.replay(batch)
        assert str(dispatch_exc.value) == str(twin_exc.value)
        assert _bitwise_state(a) == before

    def test_conflict_with_existing_reservation(self):
        a = PortReservationTable()
        a.reserve(0, 1, 1.0, 2.0, 1, 0.1)
        before = _bitwise_state(a)
        batch = [
            Reservation(start=1.5, end=2.5, src=0, dst=2, coflow_id=2, setup=0.05),
            Reservation(start=6.0, end=7.0, src=3, dst=4, coflow_id=3, setup=0.05),
        ]
        assert _native.prt_replay(a, batch, TIME_EPS) is False
        assert _bitwise_state(a) == before
        with pytest.raises(PortConflictError):
            a._replay_python(batch)
        assert _bitwise_state(a) == before

    def test_foreign_objects_decline_without_mutation(self):
        a = PortReservationTable()
        a.reserve(0, 1, 0.0, 1.0, 1, 0.1)
        before = _bitwise_state(a)
        assert _native.prt_replay(a, [object(), object()], TIME_EPS) is False
        assert _bitwise_state(a) == before

    def test_out_of_range_ports_fall_back_to_python(self):
        """Ports beyond int32: the kernel declines, the Python twin
        finishes the dispatch, and the result matches a pure-Python run."""
        big = 2**40
        batch = [
            Reservation(start=0.0, end=1.0, src=big, dst=0, coflow_id=1, setup=0.0),
            Reservation(start=2.0, end=3.0, src=big, dst=0, coflow_id=1, setup=0.0),
        ]
        a = PortReservationTable()
        before = _bitwise_state(a)
        assert _native.prt_replay(a, batch, TIME_EPS) is False
        assert _bitwise_state(a) == before
        b = PortReservationTable()
        with use_backend("native"):
            a.replay(batch)
        with use_backend("python"):
            b.replay(batch)
        assert _bitwise_state(a) == _bitwise_state(b)
        assert len(a) == 2


@needs_native
class TestScheduleDemandPacked:
    """The fused packed-columns planner entry vs its unpacked twins."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_three_way_differential(self, seed):
        rng = random.Random(seed)
        demand = {
            (rng.randrange(8), rng.randrange(8)): rng.uniform(0.001, 3.0)
            for _ in range(rng.randrange(1, 18))
        }
        blockers = {
            (rng.randrange(8), rng.randrange(8)): rng.uniform(0.1, 1.0)
            for _ in range(rng.randrange(0, 5))
        }
        start = rng.uniform(0.0, 2.0)
        outcomes = []
        for backend, mapping in (
            ("native", PackedDemand(demand)),  # schedule_demand_packed
            ("native", dict(demand)),  # _pack_demand + schedule_demand
            ("python", dict(demand)),  # pure-Python loop
        ):
            with use_backend(backend):
                prt = PortReservationTable()
                if blockers:
                    SunflowScheduler().schedule_demand(prt, "blk", blockers)
                schedule = SunflowScheduler().schedule_demand(
                    prt, "cf", mapping, start_time=start
                )
            outcomes.append(
                ([_res_hex(r) for r in schedule.reservations], _bitwise_state(prt))
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_established_continuations(self, seed):
        rng = random.Random(seed)
        demand = {
            (rng.randrange(6), rng.randrange(6)): rng.uniform(0.01, 2.0)
            for _ in range(rng.randrange(2, 12))
        }
        established = {}
        for circuit in list(demand)[: rng.randrange(1, 4)]:
            anchor = rng.choice([None, rng.uniform(0.5, 6.0)])
            established[circuit] = (rng.uniform(0.0, 0.02), anchor)
        outcomes = []
        for backend, mapping in (
            ("native", PackedDemand(demand)),
            ("python", dict(demand)),
        ):
            with use_backend(backend):
                prt = PortReservationTable()
                schedule = SunflowScheduler().schedule_demand(
                    prt, "cf", mapping, start_time=0.25, established=established
                )
            outcomes.append(
                ([_res_hex(r) for r in schedule.reservations], _bitwise_state(prt))
            )
        assert outcomes[0] == outcomes[1]

    def test_in_place_value_patches_are_visible(self):
        """Service decrements write through ``PackedDemand.__setitem__``;
        the columns the kernel reads must track them."""
        base = {(0, 1): 2.0, (1, 2): 1.5, (2, 0): 0.75}
        packed = PackedDemand(base)
        packed[(1, 2)] = 0.4
        packed[(2, 0)] = 0.0  # served out: the kernel must drop it
        plain = dict(base)
        plain[(1, 2)] = 0.4
        plain[(2, 0)] = 0.0
        assert packed.packed_ok
        outcomes = []
        for backend, mapping in (("native", packed), ("python", plain)):
            with use_backend(backend):
                prt = PortReservationTable()
                schedule = SunflowScheduler().schedule_demand(prt, 9, mapping)
            outcomes.append(
                ([_res_hex(r) for r in schedule.reservations], _bitwise_state(prt))
            )
        assert outcomes[0] == outcomes[1]
        assert all(r[:2] != (2, 0) for r in outcomes[0][0])

    def test_key_mutation_unpacks_and_still_matches(self):
        """Adding a key flips ``packed_ok`` off; the planner must take
        the sorted-items path and stay bitwise-identical anyway."""
        packed = PackedDemand({(0, 1): 1.0})
        packed[(3, 2)] = 0.5
        assert not packed.packed_ok
        outcomes = []
        for backend in ("native", "python"):
            with use_backend(backend):
                prt = PortReservationTable()
                schedule = SunflowScheduler().schedule_demand(prt, 1, dict(packed))
            outcomes.append([_res_hex(r) for r in schedule.reservations])
        with use_backend("native"):
            prt = PortReservationTable()
            schedule = SunflowScheduler().schedule_demand(prt, 1, packed)
        assert [_res_hex(r) for r in schedule.reservations] == outcomes[0] == outcomes[1]

    def test_empty_after_filter_returns_no_plan(self):
        packed = PackedDemand({(0, 1): 0.0, (2, 3): TIME_EPS / 2})
        with use_backend("native"):
            prt = PortReservationTable()
            schedule = SunflowScheduler().schedule_demand(prt, 1, packed)
        assert schedule.reservations == []
        assert len(prt) == 0


@needs_native
class TestTransformContinuationEndToEnd:
    """The transform proof runs on every replan of a served Coflow; an
    end-to-end inter-Sunflow replay exercises accept, proof-failure, and
    recompute outcomes.  Records AND perf counters must be identical
    across backends — a transform that accepted where the Python twin
    recomputed would desynchronize ``plans_transformed`` even if the
    final schedule happened to agree."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_replay_backend_invariant_with_transforms(self, seed):
        from repro.perf import PerfCounters
        from repro.sim.circuit_sim import InterCoflowSimulator
        from repro.workloads import FacebookLikeTraceGenerator, GeneratorConfig

        config = GeneratorConfig(
            num_ports=14,
            num_coflows=30,
            max_width=6,
            mean_interarrival=0.8,
            seed=seed,
        )
        trace = FacebookLikeTraceGenerator(config).generate()
        results = {}
        for backend in ("python", "native"):
            with use_backend(backend):
                perf = PerfCounters()
                simulator = InterCoflowSimulator(
                    trace, bandwidth_bps=1e9, delta=0.01, perf=perf
                )
                report = simulator.run()
            results[backend] = (
                sorted(
                    (r.coflow_id, r.cct.hex(), r.completion_time.hex(), r.switching_count)
                    for r in report.records
                ),
                perf.snapshot()["counts"],
            )
        assert results["python"][0] == results["native"][0]
        assert results["python"][1] == results["native"][1]
        assert results["python"][1].get("plans_transformed", 0) > 0

    def test_never_mutates_on_any_outcome(self, monkeypatch):
        """Whatever the kernel returns — heads, None, or a decline — the
        PRT buffers must be untouched afterwards."""
        import repro.sim.circuit_sim as sim_mod
        from repro.workloads import FacebookLikeTraceGenerator, GeneratorConfig

        config = GeneratorConfig(
            num_ports=10, num_coflows=12, max_width=4, mean_interarrival=0.6, seed=2
        )
        trace = FacebookLikeTraceGenerator(config).generate()
        native = _native.transform_continuation
        seen = {"calls": 0}

        def checked(*args):
            prt = args[0]
            before = _bitwise_state(prt)
            result = native(*args)
            assert _bitwise_state(prt) == before
            seen["calls"] += 1
            return result

        class _Proxy:
            def __getattr__(self, name):
                if name == "transform_continuation":
                    return checked
                return getattr(_native, name)

        proxy = _Proxy()
        monkeypatch.setattr(backend, "_probe", lambda: proxy)
        monkeypatch.setattr(backend, "_resolved", {})
        with use_backend("native"):
            simulator = sim_mod.InterCoflowSimulator(
                trace, bandwidth_bps=1e9, delta=0.01
            )
            simulator.run()
        assert seen["calls"] > 0
