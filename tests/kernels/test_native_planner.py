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
  stay synchronized across backends) and SORTED_DEMAND + quantum;
* multi-coflow ``schedule_many`` sequences sharing one PRT;
* end-to-end Fig-6/Fig-10 API cells (intra and inter Sunflow replays)
  and the K-core fabric at K ∈ {2, 4};
* the backend resolver's contract: native by default when built; without
  the extension, the Python loop silently when unset and with exactly one
  warning under ``REPRO_KERNEL=native``; an unknown value raises.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.prt import PortReservationTable, native_transactions_available
from repro.core.sunflow import (
    ReservationOrder,
    SunflowScheduler,
    native_planner_available,
    planner_backend,
)
from repro.kernels import active_backend, use_backend

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
    """The PRT's full boundary state, bitwise (arrays compare exactly)."""
    return (
        {k: v.tolist() for k, v in prt._in_bounds.items()},
        {k: v.tolist() for k, v in prt._out_bounds.items()},
        {k: v.tolist() for k, v in prt._in_refs.items()},
        {k: v.tolist() for k, v in prt._out_refs.items()},
    )


def _plan_once(backend, demand, blockers, established, start_time, **scheduler_kwargs):
    """One blocked-then-planned run under ``backend``; returns keys + state."""
    import random

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
        import random

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
    @given(demand=_DEMAND, quantum=st.one_of(st.none(), st.floats(0.001, 0.1)))
    def test_sorted_demand_with_quantum(self, demand, quantum):
        py = _plan_once(
            "python",
            demand,
            None,
            None,
            0.0,
            order=ReservationOrder.SORTED_DEMAND,
            quantum=quantum,
        )
        nat = _plan_once(
            "native",
            demand,
            None,
            None,
            0.0,
            order=ReservationOrder.SORTED_DEMAND,
            quantum=quantum,
        )
        assert py == nat

    @_FUZZ
    @given(
        demands=st.lists(st.tuples(_PAIR, _SECONDS), min_size=2, max_size=20),
        start=st.floats(0.0, 1.0),
    )
    def test_schedule_many_sequence(self, demands, start):
        """Several coflows planned back-to-back on one shared PRT."""
        split = max(1, len(demands) // 2)
        coflows = [
            (1, dict(demands[:split])),
            (2, dict(demands[split:]) or {(0, 1): 0.5}),
        ]
        results = []
        for backend in ("python", "native"):
            with use_backend(backend):
                prt, schedules = SunflowScheduler().schedule_many(
                    coflows, start_time=start
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


def _transaction(demand):
    """Plan two Coflows on one table, roll the second back and replay it;
    returns the reservations and the table state, bitwise."""
    prt = PortReservationTable()
    scheduler = SunflowScheduler()
    first = scheduler.schedule_demand(prt, 7, demand)
    token = prt.checkpoint()
    second = scheduler.schedule_demand(prt, 8, demand, start_time=0.5)
    assert prt.rollback(token) == len(second.reservations)
    prt.replay(second.reservations)
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
        assert native_transactions_available()

    def test_default_without_extension_is_python_silently(
        self, monkeypatch, native_absent
    ):
        """Unset backend, no extension: the Python twins run with no
        warning, bitwise-equal to REPRO_KERNEL=python."""
        with use_backend("python"):
            expected = _transaction(_DEMAND)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert planner_backend() == "python"
            assert _transaction(_DEMAND) == expected
        assert not _runtime_warnings(caught)

    def test_missing_extension_falls_back_with_one_warning(
        self, monkeypatch, native_absent
    ):
        """Extension artificially absent: REPRO_KERNEL=native plans, rolls
        back and replays via the Python twins, bitwise-equal to
        REPRO_KERNEL=python, with one warning for all of them."""
        with use_backend("python"):
            expected = _transaction(_DEMAND)

        monkeypatch.setenv("REPRO_KERNEL", "native")
        assert not native_planner_available()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert planner_backend() == "python"  # reports the loop that runs
            assert _transaction(_DEMAND) == expected
        native_warnings = _runtime_warnings(caught)
        assert len(native_warnings) == 1
        assert "pure-Python planner and PRT transactions" in str(
            native_warnings[0].message
        )

        # The warning is once-per-process, not once-per-call or per spelling.
        monkeypatch.setenv("REPRO_KERNEL", " Native ")
        with warnings.catch_warnings(record=True) as again:
            warnings.simplefilter("always")
            _transaction(_DEMAND)
        assert not _runtime_warnings(again)

    def test_unknown_backend_raises(self, monkeypatch):
        """A misspelt backend fails loudly instead of planning in Python."""
        monkeypatch.setenv("REPRO_KERNEL", "natvie")
        accepted = r"'natvie'.*'numpy', 'python', 'native'"
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
