"""Differential tests: the array-backed packet engine vs the reference.

The vectorized fluid packet simulator
(:class:`~repro.sim.packet_vector.VectorPacketSimulator` over the
kernels in :mod:`repro.kernels.allocation`) advertises *bitwise*
identity with the dict-based
:class:`~repro.sim.packet_sim.PacketSimulator`.  Three layers of
evidence:

* allocator level — the same snapshot of active Coflows through
  ``allocate`` (dict form) and ``vector_allocate`` (``FlowArrays``
  form) yields bit-for-bit equal rates, flow by flow;
* engine level (hypothesis) — random traces replayed through both
  engines produce identical event sequences and identical CCT records,
  for Varys with and without backfill and for both Aalo disciplines;
* dispatch level — ``simulate_packet`` routes stock allocators to the
  vector engine under every ``REPRO_KERNEL`` value, and subclassed
  allocators to ``PacketSimulator``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import use_backend
from repro.core.coflow import Coflow, CoflowTrace
from repro.sim.aalo import AaloAllocator
from repro.sim.packet_sim import (
    PacketCoflowState,
    PacketSimulator,
    simulate_packet,
)
from repro.sim.packet_vector import (
    VectorPacketSimulator,
    _Slot,
    _build_table,
    vector_capable,
)
from repro.sim.varys import VarysAllocator
from repro.units import GBPS, MB

B = 1 * GBPS

#: Allocator configurations under differential test.  Factories, not
#: instances: every run gets fresh allocator state.
ALLOCATORS = {
    "varys": lambda: VarysAllocator(),
    "varys-nobackfill": lambda: VarysAllocator(backfill=False),
    "aalo-strict": lambda: AaloAllocator(),
    "aalo-weighted": lambda: AaloAllocator(discipline="weighted"),
    "aalo-4q": lambda: AaloAllocator(num_queues=4, initial_threshold_bytes=1 * MB),
}


# ----------------------------------------------------------------------
# Trace strategy: small random traces with exact (dyadic) sizes/arrivals
# ----------------------------------------------------------------------


@st.composite
def traces(draw, max_ports=10, max_coflows=8):
    """Random Coflow traces; dyadic sizes and arrivals are exact floats."""
    num_ports = draw(st.integers(min_value=2, max_value=max_ports))
    num_coflows = draw(st.integers(min_value=1, max_value=max_coflows))
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    coflows = []
    arrival = 0.0
    for cid in range(1, num_coflows + 1):
        arrival += rng.randint(0, 16) / 8.0
        width = rng.randint(1, min(5, num_ports))
        demand = {}
        for _ in range(width * rng.randint(1, 2)):
            src = rng.randrange(num_ports)
            dst = rng.randrange(num_ports)
            # 0.125..64 MB in dyadic steps: straddles the default Aalo
            # 10 MB first threshold so queue moves happen.
            demand[(src, dst)] = rng.randint(1, 512) / 8.0 * MB
        coflows.append(Coflow.from_demand(cid, demand, arrival_time=arrival))
    return CoflowTrace(num_ports=num_ports, coflows=coflows)


def assert_runs_identical(trace, make_allocator):
    reference = PacketSimulator(trace, make_allocator(), B)
    reference_report = reference.run()
    vector = VectorPacketSimulator(trace, make_allocator(), B)
    vector_report = vector.run()
    # Bitwise discipline: plain ==, no tolerances anywhere.
    assert vector.event_times == reference.event_times
    assert len(vector_report.records) == len(reference_report.records)
    for ours, theirs in zip(vector_report.records, reference_report.records):
        assert ours.coflow_id == theirs.coflow_id
        assert ours.completion_time == theirs.completion_time
        assert ours.arrival_time == theirs.arrival_time


# ----------------------------------------------------------------------
# Allocator level: bitwise-equal rates on a shared snapshot
# ----------------------------------------------------------------------


def snapshot(coflows, num_ports):
    """The same active set as dict states and as a ``FlowArrays`` table."""
    states = [
        PacketCoflowState(coflow=c, remaining=dict(c.processing_times(B)))
        for c in coflows
    ]
    table = _build_table([_Slot(c, B) for c in coflows], None, num_ports)
    return states, table


def assert_rates_bitwise(states, table, rates, num_ports):
    for k, cid in enumerate(table.coflow_ids):
        lo, hi = int(table.starts[k]), int(table.starts[k + 1])
        state = states[k]
        assert state.coflow_id == cid
        for j, circuit in zip(range(lo, hi), state.remaining):
            expected = rates.get((cid,) + circuit, 0.0)
            assert table.rate[j] == expected  # bitwise


@pytest.mark.parametrize("name", sorted(ALLOCATORS))
def test_allocator_rates_bitwise_equal(name):
    rng = random.Random(20)
    coflows = []
    for cid in range(1, 7):
        demand = {
            (rng.randrange(8), rng.randrange(8)): rng.randint(1, 256) / 8.0 * MB
            for _ in range(rng.randint(1, 6))
        }
        coflows.append(Coflow.from_demand(cid, demand))
    states, table = snapshot(coflows, num_ports=8)
    allocator = ALLOCATORS[name]()
    rates = allocator.allocate(states, 8, B)
    ALLOCATORS[name]().vector_allocate(table, 8, B)
    assert_rates_bitwise(states, table, rates, 8)


def test_aalo_rates_bitwise_equal_with_attained_service():
    """Sent-seconds drive D-CLAS queueing; both forms must agree on it."""
    rng = random.Random(21)
    coflows = [
        Coflow.from_demand(
            cid,
            {
                (rng.randrange(6), rng.randrange(6)): rng.randint(1, 512) / 8.0 * MB
                for _ in range(rng.randint(1, 5))
            },
        )
        for cid in range(1, 6)
    ]
    states, table = snapshot(coflows, num_ports=6)
    for k, state in enumerate(states):
        attained = k * 0.05
        state.sent_seconds = attained
        table.sent_seconds[k] = attained
    allocator = AaloAllocator()
    rates = allocator.allocate(states, 6, B)
    AaloAllocator().vector_allocate(table, 6, B)
    assert_rates_bitwise(states, table, rates, 6)


# ----------------------------------------------------------------------
# Engine level: identical event sequences and CCT records
# ----------------------------------------------------------------------


class TestEngineDifferential:
    @settings(max_examples=20, deadline=None)
    @given(trace=traces())
    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_random_traces_identical(self, trace, name):
        assert_runs_identical(trace, ALLOCATORS[name])

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_wide_coflow_exercises_vector_paths(self, name):
        """A 10×10 shuffle (100 flows) crosses the kernels'
        ``SCREEN_MIN_FLOWS``/``RANK_MIN_FLOWS`` cutovers, so the screened
        and suffix-rank code paths run — not just the scalar smalls."""
        rng = random.Random(22)
        shuffle = {
            (src, dst): rng.randint(1, 128) / 8.0 * MB
            for src in range(10)
            for dst in range(10, 20)
        }
        coflows = [Coflow.from_demand(1, shuffle, arrival_time=0.0)]
        for cid in range(2, 8):
            demand = {
                (rng.randrange(20), rng.randrange(20)): rng.randint(1, 256) / 8.0 * MB
                for _ in range(rng.randint(1, 4))
            }
            coflows.append(
                Coflow.from_demand(cid, demand, arrival_time=rng.randint(0, 8) / 4.0)
            )
        trace = CoflowTrace(num_ports=20, coflows=coflows)
        assert_runs_identical(trace, ALLOCATORS[name])

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_forced_vector_paths_on_small_traces(self, name, monkeypatch):
        """Drop the cutovers to 1 so even tiny Coflows take the screened
        and suffix-rank paths, then re-run a random-trace differential."""
        from repro.kernels import allocation

        monkeypatch.setattr(allocation, "SCREEN_MIN_FLOWS", 1)
        monkeypatch.setattr(allocation, "RANK_MIN_FLOWS", 1)
        rng = random.Random(23)
        coflows = [
            Coflow.from_demand(
                cid,
                {
                    (rng.randrange(6), rng.randrange(6)): rng.randint(1, 512) / 8.0 * MB
                    for _ in range(rng.randint(1, 4))
                },
                arrival_time=rng.randint(0, 12) / 4.0,
            )
            for cid in range(1, 9)
        ]
        trace = CoflowTrace(num_ports=6, coflows=coflows)
        assert_runs_identical(trace, ALLOCATORS[name])


# ----------------------------------------------------------------------
# Dispatch level: backend switch and subclass fallback
# ----------------------------------------------------------------------


def tiny_trace():
    a = Coflow.from_demand(1, {(0, 1): 20 * MB, (1, 2): 5 * MB}, arrival_time=0.0)
    b = Coflow.from_demand(2, {(0, 1): 10 * MB}, arrival_time=0.1)
    return CoflowTrace(num_ports=4, coflows=[a, b])


class TweakedVarys(VarysAllocator):
    """A subclass (possibly overriding ``allocate``) must not be routed
    to the vector twin, which would bypass its overrides."""


class TestDispatch:
    def test_vector_capable_is_exact_type(self):
        assert vector_capable(VarysAllocator())
        assert vector_capable(AaloAllocator())
        assert not vector_capable(TweakedVarys())

    def test_numpy_backend_routes_to_vector_engine(self, monkeypatch):
        """Stock allocators run on the numpy vector engine whatever
        ``REPRO_KERNEL`` says: the switch picks only the planner."""
        seen = []
        original = VectorPacketSimulator.run

        def spying_run(self):
            seen.append(True)
            return original(self)

        monkeypatch.setattr(VectorPacketSimulator, "run", spying_run)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        simulate_packet(tiny_trace(), VarysAllocator(), B)
        with use_backend("python"):
            simulate_packet(tiny_trace(), VarysAllocator(), B)
        assert len(seen) == 2

    def test_subclassed_allocator_falls_back(self, monkeypatch):
        def failing_run(self):  # pragma: no cover - failure mode only
            raise AssertionError("vector engine must not run for subclasses")

        monkeypatch.setattr(VectorPacketSimulator, "run", failing_run)
        report = simulate_packet(tiny_trace(), TweakedVarys(), B)
        assert len(report.records) == 2

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_backends_agree_through_simulate_packet(self, name):
        trace = tiny_trace()
        kernel = simulate_packet(trace, ALLOCATORS[name](), B)
        reference = PacketSimulator(trace, ALLOCATORS[name](), B).run()
        assert [
            (r.coflow_id, r.completion_time) for r in kernel.records
        ] == [(r.coflow_id, r.completion_time) for r in reference.records]


def test_hybrid_overlay_rides_selected_backend(monkeypatch):
    """The hybrid fabric's circuit half rides the selected planner and its
    packet overlay goes through ``simulate_packet``; the default and the
    pure-Python planner agree end to end."""
    from repro.sim.hybrid import HybridConfig, simulate_inter_hybrid

    trace = tiny_trace()
    config = HybridConfig(size_threshold_bytes=15 * MB)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    kernel = simulate_inter_hybrid(trace, config, B)
    with use_backend("python"):
        reference = simulate_inter_hybrid(trace, config, B)
    assert [
        (r.coflow_id, r.completion_time) for r in kernel.records
    ] == [(r.coflow_id, r.completion_time) for r in reference.records]
