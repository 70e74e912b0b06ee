"""Differential fuzz: the unified event engine vs the retired loops.

Before this suite existed, :class:`~repro.sim.circuit_sim.InterCoflowSimulator`,
:class:`~repro.sim.packet_sim.PacketSimulator`, and
:class:`~repro.sim.packet_vector.VectorPacketSimulator` each carried a
private copy of the trace-replay event loop.  They now all drive
:func:`repro.sim.engine.run_replay`; the original loop bodies are kept
here, verbatim, as *legacy drivers* that operate on the same simulator
components (replanner, allocators, advance/record hooks).  Random traces
replayed through both must produce identical event sequences and CCT
records — any divergence in admission batching, event selection, or
completion ordering shows up as a mismatch.
"""

import math
import random
from typing import Dict, List, Optional

import pytest

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.prt import TIME_EPS
from repro.perf.replay_bench import records_sha256
from repro.sim.aalo import AaloAllocator
from repro.core.replan import ActiveCoflow
from repro.sim.circuit_sim import InterCoflowSimulator
from repro.sim.packet_sim import PacketCoflowState, PacketSimulator
from repro.sim.results import SimulationReport, make_record
from repro.sim.varys import VarysAllocator
from repro.units import GBPS, MB
from repro.workloads.synthetic import FacebookLikeTraceGenerator, GeneratorConfig

B = 1 * GBPS


def record_key(record):
    return (record.coflow_id, record.completion_time, record.switching_count)


def random_trace(seed: int, num_ports: int = 10, num_coflows: int = 25) -> CoflowTrace:
    config = GeneratorConfig(
        num_ports=num_ports, num_coflows=num_coflows, max_width=5, seed=seed
    )
    return FacebookLikeTraceGenerator(config).generate()


def dense_trace(seed: int) -> CoflowTrace:
    """Hand-rolled trace with simultaneous arrivals and port contention."""
    rng = random.Random(seed)
    coflows = []
    for cid in range(18):
        arrival = rng.choice([0.0, 0.0, 0.05, 0.05, 0.1, 0.2])
        width = rng.randint(1, 3)
        demand = {}
        for _ in range(width):
            circuit = (rng.randrange(4), rng.randrange(4))
            demand[circuit] = demand.get(circuit, 0.0) + rng.randint(1, 40) * MB
        coflows.append(Coflow.from_demand(cid, demand, arrival_time=arrival))
    return CoflowTrace(num_ports=4, coflows=coflows)


# ----------------------------------------------------------------------
# Legacy loop bodies, verbatim from the pre-unification simulators
# ----------------------------------------------------------------------
def legacy_circuit_run(sim: InterCoflowSimulator):
    """The old ``InterCoflowSimulator.run`` loop, instrumented to also
    return the event sequence."""
    report = SimulationReport("sunflow", sim.bandwidth_bps, sim.delta)
    arrivals = list(sim.trace)
    next_arrival_index = 0
    active: Dict[int, ActiveCoflow] = {}
    now = 0.0
    perf = sim.perf
    sim._report = report
    event_times: List[float] = []

    while active or next_arrival_index < len(arrivals):
        if not active:
            now = arrivals[next_arrival_index].arrival_time
        while (
            next_arrival_index < len(arrivals)
            and arrivals[next_arrival_index].arrival_time <= now + TIME_EPS
        ):
            coflow = arrivals[next_arrival_index]
            active[coflow.coflow_id] = ActiveCoflow(
                coflow=coflow,
                remaining=dict(coflow.processing_times(sim.bandwidth_bps)),
            )
            next_arrival_index += 1

        perf.inc("events")
        schedules = sim.planner.plan(active, now)
        next_arrival = (
            arrivals[next_arrival_index].arrival_time
            if next_arrival_index < len(arrivals)
            else float("inf")
        )
        next_completion = min(s.completion_time for s in schedules.values())
        event_time = min(next_arrival, next_completion)
        if sim.guard is not None:
            for window in sim.guard.windows_between(now, event_time):
                if window.end > now + TIME_EPS:
                    event_time = min(event_time, window.end)
                    break

        sim._advance(active, schedules, now, event_time)
        sim._record_completions(active, report, event_time)
        now = event_time
        event_times.append(event_time)
    return report, event_times


def legacy_packet_run(sim: PacketSimulator):
    """The old ``PacketSimulator.run`` loop."""
    report = SimulationReport(sim.allocator.name, sim.bandwidth_bps, delta=0.0)
    arrivals = list(sim.trace)
    next_arrival_index = 0
    active: Dict[int, PacketCoflowState] = {}
    now = 0.0
    event_times: List[float] = []

    while active or next_arrival_index < len(arrivals):
        if not active:
            now = arrivals[next_arrival_index].arrival_time
        while (
            next_arrival_index < len(arrivals)
            and arrivals[next_arrival_index].arrival_time <= now + TIME_EPS
        ):
            coflow = arrivals[next_arrival_index]
            active[coflow.coflow_id] = PacketCoflowState(
                coflow=coflow,
                remaining=dict(coflow.processing_times(sim.bandwidth_bps)),
            )
            next_arrival_index += 1

        states = list(active.values())
        rates = sim.allocator.allocate(states, sim.trace.num_ports, sim.bandwidth_bps)
        sim._check_capacity(rates)

        next_arrival = (
            arrivals[next_arrival_index].arrival_time
            if next_arrival_index < len(arrivals)
            else math.inf
        )
        event_time = min(
            next_arrival,
            sim._next_completion(states, rates, now),
            sim.allocator.extra_event_time(states, rates, now, sim.bandwidth_bps),
        )
        if math.isinf(event_time):
            raise RuntimeError(
                "no progress possible: allocator starved all active coflows "
                "and no arrivals remain"
            )

        sim._advance(states, rates, event_time - now)
        finished = [cid for cid, state in active.items() if state.done]
        for cid in finished:
            state = active.pop(cid)
            report.add(
                make_record(
                    state.coflow,
                    completion_time=event_time,
                    bandwidth_bps=sim.bandwidth_bps,
                    delta=0.0,
                    switching_count=0,
                )
            )
        now = event_time
        event_times.append(event_time)
    return report, event_times


def legacy_vector_run(sim):
    """The old ``VectorPacketSimulator.run`` loop."""
    from repro.kernels.allocation import advance, check_capacity, next_completion
    from repro.sim.packet_vector import _build_table, _Slot

    report = SimulationReport(sim.allocator.name, sim.bandwidth_bps, delta=0.0)
    allocator = sim.allocator
    bandwidth = sim.bandwidth_bps
    num_ports = sim.trace.num_ports
    reallocate = allocator.reallocate_on_flow_completion
    arrivals = list(sim.trace)
    total = len(arrivals)
    index = 0
    live: List[_Slot] = []
    table = None
    now = 0.0
    event_times: List[float] = []

    while live or index < total:
        if not live:
            now = arrivals[index].arrival_time
        admitted = False
        while index < total and arrivals[index].arrival_time <= now + TIME_EPS:
            live.append(_Slot(arrivals[index], bandwidth))
            index += 1
            admitted = True
        if admitted:
            table = _build_table(live, table, num_ports)

        order = allocator.vector_allocate(table, num_ports, bandwidth)
        check_capacity(table, order, num_ports)

        next_arrival = arrivals[index].arrival_time if index < total else math.inf
        event_time = min(
            next_arrival,
            next_completion(table, now, reallocate),
            allocator.vector_extra_event_time(table, now, bandwidth),
        )
        if math.isinf(event_time):
            raise RuntimeError(
                "no progress possible: allocator starved all active coflows "
                "and no arrivals remain"
            )
        event_time = float(event_time)

        advance(table, event_time - now)
        unfinished = table.unfinished
        if any(unfinished[slot.cidx] == 0 for slot in live):
            still = []
            for slot in live:
                if unfinished[slot.cidx] == 0:
                    report.add(
                        make_record(
                            slot.coflow,
                            completion_time=event_time,
                            bandwidth_bps=bandwidth,
                            delta=0.0,
                            switching_count=0,
                        )
                    )
                else:
                    still.append(slot)
            live = still
        now = event_time
        event_times.append(event_time)
    return report, event_times


# ----------------------------------------------------------------------
# Differential fuzz
# ----------------------------------------------------------------------
#: :func:`~repro.perf.replay_bench.records_sha256` of each random-trace
#: replay, keyed ``(incremental, seed)`` by the retired replan path that
#: recorded it.  The incremental and full paths agreed on every seed, so
#: the surviving path must reproduce both.
RANDOM_TRACE_DIGESTS = {
    (True, 0): "60189fab3be60194fb7fd7604c731673ccf95e528105fa1fc37a71279b0edf39",
    (True, 1): "36741ad7e81e9d970e266ada45494dc83eadbe473e8fb113636d09ae54d1d76c",
    (True, 2): "9925096fead0c0bc9646d3da64dd4cd983523c7ec1bc3ca5d790f10258fe3500",
    (True, 7): "07d2af0ef69cf85a57f6c0e438b8e1a0fa7ca1699780f03ba3f14e0a33c73bbc",
    (True, 2016): "04d9380fae2f9c0d7ffee62ddf709389e76518f095b1423b9b2da33e3bde14e0",
    (False, 0): "60189fab3be60194fb7fd7604c731673ccf95e528105fa1fc37a71279b0edf39",
    (False, 1): "36741ad7e81e9d970e266ada45494dc83eadbe473e8fb113636d09ae54d1d76c",
    (False, 2): "9925096fead0c0bc9646d3da64dd4cd983523c7ec1bc3ca5d790f10258fe3500",
    (False, 7): "07d2af0ef69cf85a57f6c0e438b8e1a0fa7ca1699780f03ba3f14e0a33c73bbc",
    (False, 2016): "04d9380fae2f9c0d7ffee62ddf709389e76518f095b1423b9b2da33e3bde14e0",
}


class TestCircuitEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 2016])
    @pytest.mark.parametrize("incremental", [True, False])
    def test_random_traces(self, seed, incremental):
        trace = random_trace(seed)
        new = InterCoflowSimulator(trace)
        new_report = new.run()
        legacy = InterCoflowSimulator(trace)
        legacy_report, legacy_events = legacy_circuit_run(legacy)
        assert new.event_times == legacy_events
        assert sorted(map(record_key, new_report.records)) == sorted(
            map(record_key, legacy_report.records)
        )
        assert (
            records_sha256(new_report.records, new.event_times)
            == RANDOM_TRACE_DIGESTS[(incremental, seed)]
        )

    @pytest.mark.parametrize("seed", [1, 4])
    def test_with_starvation_guard(self, seed):
        """The guard-slice clip moved into the host's ``plan`` hook; the
        guard wake-ups must still land on identical instants."""
        from repro.core.starvation import StarvationGuard
        from repro.units import DEFAULT_DELTA

        trace = random_trace(seed, num_ports=6, num_coflows=12)
        guard = StarvationGuard(
            num_ports=6, period=0.5, tau=0.1, delta=DEFAULT_DELTA
        )
        new = InterCoflowSimulator(trace, guard=guard)
        new_report = new.run()
        legacy = InterCoflowSimulator(trace, guard=guard)
        legacy_report, legacy_events = legacy_circuit_run(legacy)
        assert new.event_times == legacy_events
        assert sorted(map(record_key, new_report.records)) == sorted(
            map(record_key, legacy_report.records)
        )

    @pytest.mark.parametrize("seed", [3, 11])
    def test_dense_simultaneous_arrivals(self, seed):
        trace = dense_trace(seed)
        new = InterCoflowSimulator(trace)
        new_report = new.run()
        legacy = InterCoflowSimulator(trace)
        legacy_report, legacy_events = legacy_circuit_run(legacy)
        assert new.event_times == legacy_events
        assert sorted(map(record_key, new_report.records)) == sorted(
            map(record_key, legacy_report.records)
        )


class TestPacketEquivalence:
    @pytest.mark.parametrize("seed", [0, 5, 2016])
    @pytest.mark.parametrize(
        "make_allocator",
        [
            lambda: VarysAllocator(),
            lambda: VarysAllocator(backfill=False),
            lambda: AaloAllocator(),
        ],
        ids=["varys", "varys-nobackfill", "aalo"],
    )
    def test_random_traces(self, seed, make_allocator):
        trace = random_trace(seed, num_ports=8, num_coflows=20)
        new = PacketSimulator(trace, make_allocator(), bandwidth_bps=B)
        new_report = new.run()
        legacy = PacketSimulator(trace, make_allocator(), bandwidth_bps=B)
        legacy_report, legacy_events = legacy_packet_run(legacy)
        assert new.event_times == legacy_events
        assert sorted(map(record_key, new_report.records)) == sorted(
            map(record_key, legacy_report.records)
        )


class TestVectorEquivalence:
    @pytest.mark.parametrize("seed", [0, 5, 2016])
    @pytest.mark.parametrize(
        "make_allocator",
        [lambda: VarysAllocator(), lambda: AaloAllocator()],
        ids=["varys", "aalo"],
    )
    def test_random_traces(self, seed, make_allocator):
        from repro.sim.packet_vector import VectorPacketSimulator

        trace = random_trace(seed, num_ports=8, num_coflows=20)
        new = VectorPacketSimulator(trace, make_allocator(), bandwidth_bps=B)
        new_report = new.run()
        legacy = VectorPacketSimulator(trace, make_allocator(), bandwidth_bps=B)
        legacy_report, legacy_events = legacy_vector_run(legacy)
        assert new.event_times == legacy_events
        assert sorted(map(record_key, new_report.records)) == sorted(
            map(record_key, legacy_report.records)
        )


class TestSingleEventLoop:
    def test_exactly_one_event_loop_in_sim_and_core(self):
        """The unification's structural guarantee: the only trace-replay
        ``while`` loop left in ``src/repro/sim/`` *and* ``src/repro/core/``
        is the engine's.  ``core/`` is scanned so a private replay loop
        like the one the retired multi-plane demo carried (its planning
        now lives in ``core/multicore.py``) cannot quietly come back."""
        import pathlib

        import repro.core as core_pkg
        import repro.sim as sim_pkg

        # The loop now lives in ``run_replay_stream`` (one-arrival
        # lookahead, O(active) memory); ``run_replay`` delegates to it.
        pattern = "while pending is not _END or host.has_active()"
        loop_files = []
        for pkg in (sim_pkg, core_pkg):
            pkg_dir = pathlib.Path(pkg.__file__).parent
            for path in sorted(pkg_dir.glob("*.py")):
                text = path.read_text()
                if pattern in text:
                    loop_files.append(path.name)
                # The retired private-loop idioms must not reappear.
                assert "while active or next_arrival_index" not in text, path.name
                assert "while live or index < total" not in text, path.name
        assert loop_files == ["engine.py"]
