"""Figure 6/10 sweep cells must equal their oracle runs.

The paper's intra- and inter-Coflow comparisons (Fig 6, Fig 10) replay
baseline schedulers over generated traces.  Any cell computed on the
numpy kernel layer must equal the same cell computed with the
pure-Python oracles (:mod:`tests.oracles`) swapped in: identical
per-Coflow CCTs within 1e-9 relative.
"""

import pytest

from repro.api import NetworkSpec, SimulationSpec, facade, simulate
from repro.sim import packet_vector
from repro.units import GBPS, MS
from repro.workloads import FacebookLikeTraceGenerator, GeneratorConfig
from tests.oracles.schedulers import REFERENCE_SCHEDULERS

BANDWIDTH = 1 * GBPS
DELTA = 10 * MS


@pytest.fixture(scope="module")
def tiny_trace():
    config = GeneratorConfig(
        num_ports=12, num_coflows=8, max_width=4, mean_interarrival=1.5, seed=3
    )
    return FacebookLikeTraceGenerator(config).generate()


def run_cell(trace, scheduler, mode="intra"):
    spec = SimulationSpec(
        trace=trace,
        mode=mode,
        scheduler=scheduler,
        network=NetworkSpec(bandwidth_bps=BANDWIDTH, delta=DELTA),
    )
    return simulate(spec)


@pytest.mark.parametrize("scheduler", ["solstice", "tms", "edmond"])
def test_sweep_cell_backend_invariant(tiny_trace, scheduler, monkeypatch):
    kernel = run_cell(tiny_trace, scheduler)
    monkeypatch.setitem(
        facade._ASSIGNMENT_SCHEDULERS, scheduler, REFERENCE_SCHEDULERS[scheduler]
    )
    reference = run_cell(tiny_trace, scheduler)
    assert len(kernel.records) == len(reference.records)
    key = lambda record: record.coflow_id  # noqa: E731
    for ours, theirs in zip(
        sorted(kernel.records, key=key), sorted(reference.records, key=key)
    ):
        assert ours.coflow_id == theirs.coflow_id
        assert ours.cct == pytest.approx(theirs.cct, rel=1e-9)
        assert ours.completion_time == pytest.approx(theirs.completion_time, rel=1e-9)
        assert ours.switching_count == theirs.switching_count


@pytest.mark.parametrize("scheduler", ["varys", "aalo"])
def test_packet_cell_backend_invariant(tiny_trace, scheduler, monkeypatch):
    """Fig 6's inter-mode Varys/Aalo cells under both packet engines.

    The packet-simulator kernels promise *bitwise* identity (not just
    1e-9-relative like the decomposition kernels), so the comparison is
    plain equality.
    """
    kernel = run_cell(tiny_trace, scheduler, mode="inter")
    # Route the stock allocator to the dict-based PacketSimulator oracle.
    monkeypatch.setattr(packet_vector, "vector_capable", lambda allocator: False)
    reference = run_cell(tiny_trace, scheduler, mode="inter")
    assert len(kernel.records) == len(reference.records)
    key = lambda record: record.coflow_id  # noqa: E731
    for ours, theirs in zip(
        sorted(kernel.records, key=key), sorted(reference.records, key=key)
    ):
        assert ours.coflow_id == theirs.coflow_id
        assert ours.cct == theirs.cct
        assert ours.completion_time == theirs.completion_time
        assert ours.switching_count == theirs.switching_count
