"""Degenerate specs through the replan path.

δ = 0, a one-port fabric, an empty trace and an empty arrival stream
must each run correctly: the in-memory and streaming replays agree
record for record, intra mode meets Lemma 1 (``CCT ≤ 2·T^c_L``), and an
empty input gives an empty report after 0 events.
"""

import io

import pytest

from repro.core.coflow import Coflow, CoflowTrace
from repro.sim.circuit_sim import (
    InterCoflowSimulator,
    simulate_inter_sunflow,
    simulate_intra_sunflow,
)
from repro.sim.results import SimulationReport
from repro.sim.streaming import simulate_inter_sunflow_stream
from repro.units import GBPS, MB
from repro.workloads.stream import ArrivalStream, open_stream_trace, write_stream_trace
from repro.workloads.synthetic import FacebookLikeTraceGenerator, GeneratorConfig

B = 1 * GBPS
DELTA = 0.01


def record_key(record):
    return (record.coflow_id, record.completion_time, record.switching_count)


def random_trace(seed=3):
    config = GeneratorConfig(num_ports=8, num_coflows=30, max_width=4, seed=seed)
    return FacebookLikeTraceGenerator(config).generate()


def one_port_trace():
    """Every flow on the fabric's one circuit, ``(0, 0)``, with
    simultaneous and staggered arrivals."""
    sizes_and_arrivals = [(40, 0.0), (10, 0.0), (25, 0.1), (5, 0.5), (60, 0.5)]
    coflows = [
        Coflow.from_demand(cid, {(0, 0): size * MB}, arrival_time=arrival)
        for cid, (size, arrival) in enumerate(sizes_and_arrivals)
    ]
    return CoflowTrace(num_ports=1, coflows=coflows)


CASES = [
    pytest.param(random_trace, 0.0, id="delta-0"),
    pytest.param(one_port_trace, DELTA, id="one-port"),
    pytest.param(one_port_trace, 0.0, id="one-port-delta-0"),
]


@pytest.mark.parametrize("make_trace, delta", CASES)
def test_streaming_replay_equals_in_memory(make_trace, delta):
    trace = make_trace()
    memory = simulate_inter_sunflow(trace, B, delta)
    sink = SimulationReport("sunflow", B, delta)
    result = simulate_inter_sunflow_stream(
        iter(trace.sorted_by_arrival()),
        num_ports=trace.num_ports,
        bandwidth_bps=B,
        delta=delta,
        report=sink,
    )
    assert result.report is sink
    assert len(memory) == len(trace)
    assert [record_key(r) for r in sink.records] == [
        record_key(r) for r in memory.records
    ]
    for record in memory.records:
        # Each flow holds its port for its transfer plus at least one δ.
        assert record.cct >= record.circuit_lower * (1 - 1e-9)


@pytest.mark.parametrize("make_trace, delta", CASES)
def test_intra_meets_lemma_one(make_trace, delta):
    trace = make_trace()
    report = simulate_intra_sunflow(trace, B, delta)
    assert len(report) == len(trace)
    for record in report.records:
        assert record.cct <= 2 * record.circuit_lower * (1 + 1e-9)
        assert record.cct >= record.circuit_lower * (1 - 1e-9)


def test_empty_trace():
    trace = CoflowTrace(num_ports=4)
    simulator = InterCoflowSimulator(trace, B, DELTA)
    assert simulator.run().records == []
    assert simulator.event_times == []
    assert simulator.perf.count("events") == 0
    assert simulator.perf.count("plans_computed") == 0
    assert simulate_inter_sunflow(trace, B, DELTA).records == []
    assert simulate_intra_sunflow(trace, B, DELTA).records == []


def test_empty_arrival_stream():
    sink = SimulationReport("sunflow", B, DELTA)
    result = simulate_inter_sunflow_stream(
        ArrivalStream(num_ports=4, coflows=iter(())), report=sink
    )
    assert result.events == 0
    assert sink.records == []

    # The same through an SFTR file holding no Coflows.
    buffer = io.BytesIO()
    assert write_stream_trace(buffer, [], num_ports=4) == 0
    buffer.seek(0)
    sink = SimulationReport("sunflow", B, DELTA)
    with open_stream_trace(buffer) as stream:
        result = simulate_inter_sunflow_stream(stream, report=sink)
    assert result.events == 0
    assert sink.records == []
