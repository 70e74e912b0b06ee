"""Differential suite for the compiled Sunflow planner (``repro._native``).

The native kernel promises *bitwise* identity with the pure-Python
``schedule_demand`` loop — same reservations in the same order with the
same float bit patterns, and the same PRT boundary arrays afterwards.
Every comparison here is exact (``float.hex()``, array equality), never
approximate: the C source keeps the Python loop's float expressions
verbatim and is compiled with ``-ffp-contract=off``, so any drift at all
is a kernel bug.

Covered surfaces:

* hypothesis fuzz over dense/sparse demands, pre-blocked ports, and
  established-circuit continuations (setup remainders + anchors);
* the RANDOM reservation-order bypass (same-seeded rng streams must
  stay synchronized across backends) and SORTED_DEMAND;
* ``schedule_many`` batches of two to six Coflows with established
  continuations on a table pre-filled by blockers, at δ ∈ {0, 1 ms,
  10 ms}: the kernel's ``schedule_many_packed`` plans each batch in one
  call and writes the table back once;
* the same entry on a ``PackedDemand``'s own columns vs columns built per
  plan from a plain mapping and vs the Python loop, including in-place
  value patches, a key added after packing, a demand that filters down
  to nothing, and an entry at or below ``TIME_EPS``;
* malformed batches, which must raise before the table is touched, and
  an error mid-plan, which must leave what was planned; a malformed
  ``established`` raises before any write on both backends;
* the compiled ordering scan, ``port_bottleneck``, against
  ``CoflowView.bottleneck``'s Python loop, including every input it
  declines;
* end-to-end Fig-6/Fig-10 API cells (intra and inter Sunflow replays)
  and the K-core fabric at K ∈ {2, 4};
* the backend resolver's contract: native by default when built; without
  the extension, the Python loop silently when unset and with exactly one
  warning under ``REPRO_KERNEL=native``; an unknown value raises.
"""

from __future__ import annotations

import random
import types
import warnings
from array import array
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.demand import PackedDemand
from repro.core.policies import CoflowView
from repro.core.prt import TIME_EPS, PortReservationTable, Reservation
from repro.core.sunflow import (
    ReservationOrder,
    SunflowScheduler,
    native_planner_available,
    planner_backend,
)
from repro.backend import active_backend, use_backend

needs_native = pytest.mark.skipif(
    not native_planner_available(),
    reason="repro._native is not built (python setup.py build_ext --inplace)",
)

_PORT = st.integers(min_value=0, max_value=9)
_PAIR = st.tuples(_PORT, _PORT)
_SECONDS = st.floats(
    min_value=1e-6, max_value=8.0, allow_nan=False, allow_infinity=False
)
_DEMAND = st.dictionaries(_PAIR, _SECONDS, min_size=1, max_size=24)
_BLOCKERS = st.dictionaries(_PAIR, _SECONDS, max_size=8)
_ESTABLISHED_VALUE = st.tuples(
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
)

_FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reservation_keys(schedule):
    """Bitwise-comparable projection of a schedule (hex floats)."""
    return [
        (r.src, r.dst, r.start.hex(), r.end.hex(), r.setup.hex())
        for r in schedule.reservations
    ]


def _prt_state(prt):
    """The PRT's full state, bitwise: the boundary and ref arrays (which
    compare exactly), the journal's reservations in order, and ``_ends``
    as hex — the kernel writes all of them back once per call."""
    return (
        {k: v.tolist() for k, v in prt._in_bounds.items()},
        {k: v.tolist() for k, v in prt._out_bounds.items()},
        {k: v.tolist() for k, v in prt._in_refs.items()},
        {k: v.tolist() for k, v in prt._out_refs.items()},
        [
            (r.src, r.dst, r.coflow_id, r.start.hex(), r.end.hex(), r.setup.hex())
            for r in prt._reservations
        ],
        [end.hex() for end in prt._ends],
    )


def _plan_once(backend, demand, blockers, established, start_time, **scheduler_kwargs):
    """One blocked-then-planned run under ``backend``; returns keys + state."""
    with use_backend(backend):
        prt = PortReservationTable()
        if blockers:
            SunflowScheduler().schedule_demand(prt, "blk", blockers, start_time=0.0)
        scheduler = SunflowScheduler(rng=random.Random(99), **scheduler_kwargs)
        schedule = scheduler.schedule_demand(
            prt, "cf", demand, start_time=start_time, established=established
        )
    return _reservation_keys(schedule), _prt_state(prt)


@needs_native
class TestDifferentialFuzz:
    @_FUZZ
    @given(demand=_DEMAND, blockers=_BLOCKERS, start=st.floats(0.0, 2.0))
    def test_ordered_port(self, demand, blockers, start):
        py = _plan_once("python", demand, blockers, None, start)
        nat = _plan_once("native", demand, blockers, None, start)
        assert py == nat

    @_FUZZ
    @given(
        demand=_DEMAND,
        blockers=_BLOCKERS,
        established=st.dictionaries(_PAIR, _ESTABLISHED_VALUE, max_size=6),
        start=st.floats(0.0, 2.0),
    )
    def test_established_continuations(self, demand, blockers, established, start):
        # Only keys present in the demand matter, but stray keys must be
        # ignored identically too — pass the dict through unfiltered.
        py = _plan_once("python", demand, blockers, established, start)
        nat = _plan_once("native", demand, blockers, established, start)
        assert py == nat

    @_FUZZ
    @given(demand=_DEMAND, blockers=_BLOCKERS, seed=st.integers(0, 2**16))
    def test_random_order_rng_stays_synchronized(self, demand, blockers, seed):
        """RANDOM order shuffles via ``_make_entries`` on both backends, so
        same-seeded rng streams must produce the same plan."""
        results = []
        for backend in ("python", "native"):
            with use_backend(backend):
                prt = PortReservationTable()
                if blockers:
                    SunflowScheduler().schedule_demand(prt, "blk", blockers)
                scheduler = SunflowScheduler(
                    order=ReservationOrder.RANDOM, rng=random.Random(seed)
                )
                first = scheduler.schedule_demand(prt, "a", demand)
                # A second plan proves the rng stream advanced identically.
                second = scheduler.schedule_demand(prt, "b", demand, start_time=0.5)
            results.append(
                (_reservation_keys(first), _reservation_keys(second), _prt_state(prt))
            )
        assert results[0] == results[1]

    @_FUZZ
    @given(demand=_DEMAND)
    def test_sorted_demand(self, demand):
        py = _plan_once(
            "python", demand, None, None, 0.0, order=ReservationOrder.SORTED_DEMAND
        )
        nat = _plan_once(
            "native", demand, None, None, 0.0, order=ReservationOrder.SORTED_DEMAND
        )
        assert py == nat

    @_FUZZ
    @given(
        data=st.data(),
        coflows=st.lists(_DEMAND, min_size=2, max_size=6),
        blockers=_BLOCKERS,
        delta=st.sampled_from([0.0, 0.001, 0.01]),
        start=st.floats(0.0, 1.0),
    )
    def test_schedule_many_sequence(self, data, coflows, blockers, delta, start):
        """Two to six Coflows planned as one batch — one kernel call — on
        a table pre-filled by blockers, each with established
        continuations (some anchored within ``TIME_EPS`` of where the plan
        ends, so the anchor snap runs)."""
        established = {}
        for cid, demand in enumerate(coflows, start=1):
            circuits = data.draw(
                st.lists(st.sampled_from(sorted(demand)), unique=True, max_size=4)
            )
            established[cid] = {}
            for circuit in circuits:
                setup_left, anchor = data.draw(_ESTABLISHED_VALUE)
                if data.draw(st.booleans()):
                    setup = min(setup_left, delta)
                    anchor = start + (setup + demand[circuit]) + TIME_EPS / 2
                established[cid][circuit] = (setup_left, anchor)
        results = []
        for backend in ("python", "native"):
            # Odd ids plan from PackedDemand columns, even ids from dicts.
            demands = [
                (cid, PackedDemand(demand) if cid % 2 else dict(demand))
                for cid, demand in enumerate(coflows, start=1)
            ]
            with use_backend(backend):
                prt = PortReservationTable()
                if blockers:
                    SunflowScheduler(delta=delta).schedule_demand(prt, "blk", blockers)
                _, schedules = SunflowScheduler(delta=delta).schedule_many(
                    demands, start_time=start, prt=prt, established=established
                )
            results.append(
                (
                    {k: _reservation_keys(s) for k, s in schedules.items()},
                    _prt_state(prt),
                )
            )
        assert results[0] == results[1]


@needs_native
class TestPinnedApiCells:
    """Fig-6/Fig-10 sweep cells must be backend-invariant, bitwise."""

    @pytest.fixture(scope="class")
    def tiny_trace(self):
        from repro.workloads import FacebookLikeTraceGenerator, GeneratorConfig

        config = GeneratorConfig(
            num_ports=12, num_coflows=8, max_width=4, mean_interarrival=1.5, seed=3
        )
        return FacebookLikeTraceGenerator(config).generate()

    def run_cell(self, trace, backend, mode, num_cores=1):
        from repro.api import NetworkSpec, SimulationSpec, simulate
        from repro.units import GBPS, MS

        spec = SimulationSpec(
            trace=trace,
            mode=mode,
            scheduler="sunflow",
            network=NetworkSpec(
                bandwidth_bps=1 * GBPS, delta=10 * MS, num_cores=num_cores
            ),
        )
        with use_backend(backend):
            report = simulate(spec)
        return sorted(
            (
                r.coflow_id,
                r.cct.hex(),
                r.completion_time.hex(),
                r.switching_count,
            )
            for r in report.records
        )

    @pytest.mark.parametrize("mode", ["intra", "inter"])
    def test_sunflow_cell_backend_invariant(self, tiny_trace, mode):
        assert self.run_cell(tiny_trace, "python", mode) == self.run_cell(
            tiny_trace, "native", mode
        )

    @pytest.mark.parametrize("cores", [2, 4])
    def test_multicore_cell_backend_invariant(self, tiny_trace, cores):
        assert self.run_cell(tiny_trace, "python", "inter", cores) == self.run_cell(
            tiny_trace, "native", "inter", cores
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


@needs_native
class TestScheduleDemandPacked:
    """A PackedDemand's own columns vs columns built per plan, and both
    vs the Python loop."""

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
            ("native", PackedDemand(demand)),  # columns sorted at packing
            ("native", dict(demand)),  # columns built from the sorted keys
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

    def test_sub_eps_entry_is_skipped(self):
        """An entry at or below ``TIME_EPS`` among real demand: both loops
        must skip it and plan the rest bit for bit alike."""
        demand = {(0, 1): TIME_EPS / 2, (1, 2): 0.25, (2, 0): 1.0}
        outcomes = []
        for backend in ("native", "python"):
            with use_backend(backend):
                prt = PortReservationTable()
                schedule = SunflowScheduler().schedule_demand(prt, 1, demand)
            outcomes.append(
                ([_res_hex(r) for r in schedule.reservations], _bitwise_state(prt))
            )
        assert outcomes[0] == outcomes[1]
        assert [r[:2] for r in outcomes[0][0]] == [(1, 2), (2, 0)]


def _good_item(coflow_id, out):
    """A well-formed batch item: two circuits, no established ones."""
    return (coflow_id, array("q", [0, 1]), array("q", [1, 2]), array("d", [0.5, 0.7]), None, out)


def _blocked_table():
    prt = PortReservationTable()
    SunflowScheduler().schedule_demand(prt, "blk", {(0, 1): 0.25, (1, 0): 0.4})
    return prt


@needs_native
class TestMalformedBatch:
    """A malformed batch raises ``TypeError`` before the first reservation:
    the bad item comes last, after two good ones, and the table and every
    output list are left exactly as they were."""

    @pytest.mark.parametrize(
        "bad_item, as_tuple",
        [
            pytest.param(None, True, id="batch-not-a-list"),
            pytest.param(
                (3, array("q", [0]), array("q", [1]), array("d", [1.0]), None),
                False,
                id="wrong-arity",
            ),
            pytest.param(
                (3, array("q", [0, 2, 3]), array("q", [1, 2]), array("d", [1.0, 2.0, 3.0]), None, []),
                False,
                id="unequal-columns",
            ),
            pytest.param(
                (3, array("q", [0]), array("q", [1]), array("d", [1.0]), [((0, 1), (0.0, None))], []),
                False,
                id="established-not-a-dict",
            ),
            pytest.param(
                (3, array("q", [0]), array("q", [1]), array("d", [1.0]), {(0, 1): 0.005}, []),
                False,
                id="established-value-not-a-pair",
            ),
        ],
    )
    def test_fails_before_any_write(self, bad_item, as_tuple):
        from repro import _native

        prt = _blocked_table()
        before = _bitwise_state(prt)
        outs = [[], [], []]
        batch = [_good_item(1, outs[0]), _good_item(2, outs[1])]
        if bad_item is None:
            batch.append(_good_item(3, outs[2]))
        else:
            batch.append(bad_item)
        if as_tuple:
            batch = tuple(batch)
        with pytest.raises(TypeError):
            _native.schedule_many_packed(prt, Reservation, 0.0, 0.01, TIME_EPS, batch)
        assert _bitwise_state(prt) == before
        assert outs == [[], [], []]

    def test_planning_error_writes_back_what_was_planned(self):
        """An error mid-plan still writes the table back: it then holds
        exactly the reservations made before the error, as if each had
        been written as it was made."""
        from repro import _native

        class Flaky(Reservation):
            __slots__ = ()
            made = 0

            def __new__(cls, *args, **kwargs):
                if Flaky.made == 3:
                    raise RuntimeError("boom")
                Flaky.made += 1
                return object.__new__(cls)

        prt = _blocked_table()
        outs = [[], []]
        batch = [_good_item(1, outs[0]), _good_item(2, outs[1])]
        with pytest.raises(RuntimeError, match="boom"):
            _native.schedule_many_packed(prt, Flaky, 0.0, 0.01, TIME_EPS, batch)
        made = outs[0] + outs[1]
        assert len(made) == 3 and len(outs[0]) == 2

        expected = _blocked_table()
        for r in made:
            expected.reserve(r.src, r.dst, r.start, r.end, r.coflow_id, r.setup)
        assert _bitwise_state(prt) == _bitwise_state(expected)
        assert prt._ends_sorted is None

        # The same two plans, uninterrupted, start with those reservations.
        full = [[], []]
        _native.schedule_many_packed(
            _blocked_table(),
            Reservation,
            0.0,
            0.01,
            TIME_EPS,
            [_good_item(1, full[0]), _good_item(2, full[1])],
        )
        assert [_res_hex(r) for r in made] == [_res_hex(r) for r in (full[0] + full[1])[:3]]


class TestMalformedEstablished:
    """``schedule_many`` with a malformed ``established`` raises
    ``TypeError`` before the first reservation on either backend: the bad
    item comes last in a batch of three, after two well-formed ones, and
    the table is left exactly as it was."""

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("native", marks=needs_native)]
    )
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(frozenset({(2, 0)}), id="set-of-circuits"),
            pytest.param({(2, 0): 0.005}, id="bare-float-value"),
        ],
    )
    def test_fails_before_any_write(self, backend, bad):
        demands = [
            (1, {(0, 1): 0.5, (1, 2): 0.7}),
            (2, {(1, 0): 0.3}),
            (3, {(2, 0): 1.0, (2, 1): 0.2}),
        ]
        established = {1: {(0, 1): (0.0, None)}, 2: {}, 3: bad}
        with use_backend(backend):
            prt = _blocked_table()
            before = _bitwise_state(prt)
            with pytest.raises(TypeError):
                SunflowScheduler().schedule_many(
                    demands, prt=prt, established=established
                )
        assert _bitwise_state(prt) == before


def _bottleneck(backend, remaining):
    with use_backend(backend):
        view = CoflowView(coflow_id=0, arrival_time=0.0, remaining_times=remaining)
        return view.bottleneck


def _exact(value):
    """Bitwise projection of a bottleneck (an int sum stays an int)."""
    return value.hex() if type(value) is float else (type(value).__name__, value)


#: Few ports, so many circuits share one and summation order matters.
_SCAN_PORT = st.one_of(st.integers(0, 5), st.integers(0, 2**40))
_SCAN_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(max_value=-1e-300),  # negatives
    st.floats(min_value=5e-324, max_value=2.2e-308),  # subnormals
    st.floats(min_value=1e-9, max_value=8.0),
    st.floats(min_value=1e300),  # large: sums may overflow to inf
    st.floats(),  # anything, NaN and infinities included
)


class _ReversedItems(dict):
    """A dict subclass that iterates its items backwards."""

    def items(self):
        return reversed(list(dict.items(self)))


Circuit = namedtuple("Circuit", "src dst")


class _Seconds(float):
    pass


@needs_native
class TestPortBottleneck:
    """``CoflowView.bottleneck`` under the native backend (the compiled
    scan) against the Python loop, compared as ``float.hex()``."""

    @_FUZZ
    @given(
        data=st.data(),
        items=st.lists(
            st.tuples(st.tuples(_SCAN_PORT, _SCAN_PORT), _SCAN_VALUE),
            max_size=40,
            unique_by=lambda item: item[0],
        ),
    )
    def test_shuffled_dicts(self, data, items):
        remaining = dict(data.draw(st.permutations(items)))
        native = _bottleneck("native", remaining)
        assert _exact(native) == _exact(_bottleneck("python", remaining))

    @_FUZZ
    @given(
        data=st.data(),
        demand=st.dictionaries(st.tuples(_SCAN_PORT, _SCAN_PORT), _SCAN_VALUE, min_size=1, max_size=30),
    )
    def test_packed_demand_after_value_writes(self, data, demand):
        packed = PackedDemand(demand)
        for key in data.draw(st.lists(st.sampled_from(sorted(demand)), max_size=10)):
            packed[key] = data.draw(_SCAN_VALUE)
        assert packed.packed_ok
        native = _bottleneck("native", packed)
        assert _exact(native) == _exact(_bottleneck("python", packed))
        assert _exact(native) == _exact(_bottleneck("python", dict(packed)))

    def test_summation_order_is_the_dicts(self):
        # Port 0 (input) sums 1e16 + 1 + 1: the order decides the rounding.
        forward = {(0, 1): 1e16, (0, 2): 1.0, (0, 3): 1.0}
        backward = dict(reversed(list(forward.items())))
        assert _bottleneck("python", forward) != _bottleneck("python", backward)
        for remaining in (forward, backward):
            assert _exact(_bottleneck("native", remaining)) == _exact(
                _bottleneck("python", remaining)
            )

    @pytest.mark.parametrize(
        "remaining",
        [
            pytest.param({(0, 1): 2, (1, 2): 1.5}, id="int-value"),
            pytest.param({(0, 1): 1.0, (1, 2): _Seconds(1.5)}, id="float-subclass-value"),
            pytest.param({(True, 1): 1.0, (1, 1): 0.5}, id="bool-port"),
            pytest.param({(-1, 2): 1.0, (0, 2): 0.5}, id="negative-port"),
            pytest.param({(2**63, 1): 1.0}, id="port-past-int64"),
            pytest.param({Circuit(0, 1): 1.0, Circuit(0, 2): 0.25}, id="non-tuple-key"),
            pytest.param(
                types.MappingProxyType({(0, 1): 1.0, (0, 2): 0.5}), id="non-dict-mapping"
            ),
        ],
    )
    def test_declined_inputs_run_the_python_loop(self, remaining):
        from repro import _native

        assert _native.port_bottleneck(remaining) is None
        assert _exact(_bottleneck("native", remaining)) == _exact(
            _bottleneck("python", remaining)
        )

    def test_dict_subclass_overriding_items_is_not_scanned(self):
        """Its iteration order is not the storage order the scan reads, so
        the view never hands it over: the answer is the overridden
        ``items()`` order's, as in the Python loop."""
        remaining = _ReversedItems({(0, 1): 1e16, (0, 2): 1.0, (0, 3): 1.0})
        plain = dict(remaining)
        reversed_plain = dict(reversed(list(plain.items())))
        native = _bottleneck("native", remaining)
        assert _exact(native) == _exact(_bottleneck("python", remaining))
        assert _exact(native) == _exact(_bottleneck("python", reversed_plain))
        assert _exact(native) != _exact(_bottleneck("python", plain))


def _plan_two(demand):
    """Plan two Coflows on one table; returns the reservations and the
    table state, bitwise."""
    prt = PortReservationTable()
    scheduler = SunflowScheduler()
    first = scheduler.schedule_demand(prt, 7, demand)
    second = scheduler.schedule_demand(prt, 8, demand, start_time=0.5)
    return _reservation_keys(first) + _reservation_keys(second), _prt_state(prt)


def _runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


_DEMAND = {(0, 1): 1.25, (1, 0): 0.5}


class TestFallback:
    def test_planner_backend_reporting(self):
        with use_backend("python"):
            assert planner_backend() == "python"
        if native_planner_available():
            with use_backend("native"):
                assert planner_backend() == "native"

    @needs_native
    def test_default_is_native_when_built(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert active_backend() == "native"
        assert planner_backend() == "native"

    def test_default_without_extension_is_python_silently(
        self, monkeypatch, native_absent
    ):
        """Unset backend, no extension: the Python loop runs with no
        warning, bitwise-equal to REPRO_KERNEL=python."""
        with use_backend("python"):
            expected = _plan_two(_DEMAND)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert planner_backend() == "python"
            assert _plan_two(_DEMAND) == expected
        assert not _runtime_warnings(caught)

    def test_missing_extension_falls_back_with_one_warning(
        self, monkeypatch, native_absent
    ):
        """Extension artificially absent: REPRO_KERNEL=native plans via
        the Python loop, bitwise-equal to REPRO_KERNEL=python, with one
        warning."""
        with use_backend("python"):
            expected = _plan_two(_DEMAND)

        monkeypatch.setenv("REPRO_KERNEL", "native")
        assert not native_planner_available()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert planner_backend() == "python"  # reports the loop that runs
            assert _plan_two(_DEMAND) == expected
        native_warnings = _runtime_warnings(caught)
        assert len(native_warnings) == 1
        assert "using the pure-Python planner" in str(native_warnings[0].message)

        # The warning is once-per-process, not once-per-call or per spelling.
        monkeypatch.setenv("REPRO_KERNEL", " Native ")
        with warnings.catch_warnings(record=True) as again:
            warnings.simplefilter("always")
            _plan_two(_DEMAND)
        assert not _runtime_warnings(again)

    def test_unknown_backend_raises(self, monkeypatch):
        """A misspelt or retired backend fails loudly instead of planning
        in Python."""
        for value in ("natvie", "numpy"):
            monkeypatch.setenv("REPRO_KERNEL", value)
            accepted = rf"'{value}'.*\('python', 'native'\)"
            with pytest.raises(ValueError, match=accepted):
                planner_backend()
            with pytest.raises(ValueError, match=accepted):
                SunflowScheduler().schedule_demand(PortReservationTable(), 1, _DEMAND)

    def test_layout_version_matches(self):
        if not native_planner_available():
            pytest.skip("repro._native is not built")
        from repro import _native
        from repro.core.prt import PRT_LAYOUT_VERSION

        assert _native.LAYOUT_VERSION == PRT_LAYOUT_VERSION

    def test_extension_exports_exactly_the_entry_points(self):
        if not native_planner_available():
            pytest.skip("repro._native is not built")
        from repro import _native
        from repro.backend import ENTRY_POINTS

        public = {
            name
            for name in dir(_native)
            if not name.startswith("_") and callable(getattr(_native, name))
        }
        assert public == set(ENTRY_POINTS) == {"schedule_many_packed", "port_bottleneck"}
