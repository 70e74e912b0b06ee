"""Differential suite: streaming replay is byte-identical to in-memory.

The streaming engine is the *same* simulator behind a different arrival
source and completion sink, so everything observable — completion
records and perf counters — must match the in-memory engine bit-for-bit.  These tests pin that on the committed
reference configuration (500 Coflows / 150 ports / seed 2016, the
``BENCH_trace_replay.json`` scale) and under hypothesis-generated
arrival chunkings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coflow import CoflowTrace
from repro.perf import PerfCounters
from repro.sim.circuit_sim import InterCoflowSimulator, simulate_inter_sunflow
from repro.sim.engine import run_replay_stream
from repro.sim.results import SimulationReport
from repro.sim.streaming import (
    StreamingReport,
    StreamingResult,
    simulate_inter_sunflow_stream,
)
from repro.workloads.stream import ArrivalStream, iter_chunks, stream_synthetic
from repro.workloads.synthetic import FacebookLikeTraceGenerator, GeneratorConfig

BANDWIDTH = 1e9
DELTA = 0.01


def reference_config(num_coflows=500, num_ports=150, max_width=None, seed=2016):
    return GeneratorConfig(
        num_ports=num_ports,
        num_coflows=num_coflows,
        max_width=max_width,
        seed=seed,
    )


def run_in_memory(config):
    trace = FacebookLikeTraceGenerator(config).generate()
    perf = PerfCounters()
    simulator = InterCoflowSimulator(
        trace, bandwidth_bps=BANDWIDTH, delta=DELTA, perf=perf
    )
    report = simulator.run()
    return simulator, report, perf


def run_streaming(config, arrivals=None):
    """Drive the simulator through the streaming loop with a record sink."""
    if arrivals is None:
        arrivals = stream_synthetic(config)
    perf = PerfCounters()
    simulator = InterCoflowSimulator(
        CoflowTrace(num_ports=config.num_ports),
        bandwidth_bps=BANDWIDTH,
        delta=DELTA,
        perf=perf,
    )
    sink = SimulationReport("sunflow", bandwidth_bps=BANDWIDTH, delta=DELTA)
    simulator.begin_run(report=sink)
    run_replay_stream(simulator, arrivals)
    simulator.finish_run()
    return simulator, sink, perf


class TestReferenceByteIdentity:
    """The committed 500-coflow / 150-port reference replay."""

    @pytest.fixture(scope="class")
    def runs(self):
        config = reference_config()
        return run_in_memory(config), run_streaming(config)

    def test_records_identical(self, runs):
        (_, memory_report, _), (_, stream_sink, _) = runs
        assert stream_sink.records == memory_report.records

    def test_perf_counters_identical(self, runs):
        (_, _, memory_perf), (_, _, stream_perf) = runs
        assert stream_perf.snapshot()["counts"] == memory_perf.snapshot()["counts"]


class TestArrivalSourceInvariance:
    """Same Coflows, any iterator shape -> same bytes out."""

    @pytest.fixture(scope="class")
    def baseline(self):
        config = reference_config(num_coflows=60, num_ports=24, max_width=8, seed=4)
        trace = FacebookLikeTraceGenerator(config).generate()
        return config, trace, simulate_inter_sunflow(trace, BANDWIDTH, DELTA)

    def test_list_source(self, baseline):
        config, trace, memory_report = baseline
        arrivals = ArrivalStream(trace.num_ports, list(trace.coflows), len(trace))
        _, sink, _ = run_streaming(config, arrivals=arrivals)
        assert sink.records == memory_report.records

    @settings(max_examples=15, deadline=None)
    @given(chunk_size=st.integers(min_value=1, max_value=61))
    def test_chunked_source(self, baseline, chunk_size):
        config, trace, memory_report = baseline
        chunked = (
            coflow
            for chunk in iter_chunks(iter(trace.coflows), chunk_size)
            for coflow in chunk
        )
        arrivals = ArrivalStream(trace.num_ports, chunked)
        _, sink, _ = run_streaming(config, arrivals=arrivals)
        assert sink.records == memory_report.records

    @settings(max_examples=10, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1))
    def test_ragged_chunking(self, baseline, sizes):
        """Chunk boundaries cycle through an arbitrary ragged pattern."""
        config, trace, memory_report = baseline

        def ragged():
            queue = list(trace.coflows)
            index = 0
            while queue:
                take = sizes[index % len(sizes)]
                index += 1
                chunk, queue = queue[:take], queue[take:]
                yield from chunk

        arrivals = ArrivalStream(trace.num_ports, ragged())
        _, sink, _ = run_streaming(config, arrivals=arrivals)
        assert sink.records == memory_report.records


class TestStreamingReport:
    """The bounded sink's aggregates match the unbounded records."""

    @pytest.fixture(scope="class")
    def pair(self):
        config = reference_config(num_coflows=200, num_ports=40, max_width=10, seed=9)
        trace = FacebookLikeTraceGenerator(config).generate()
        memory_report = simulate_inter_sunflow(trace, BANDWIDTH, DELTA)
        result = simulate_inter_sunflow_stream(
            stream_synthetic(config), bandwidth_bps=BANDWIDTH, delta=DELTA
        )
        return memory_report, result

    def test_returns_streaming_result(self, pair):
        _, result = pair
        assert isinstance(result, StreamingResult)
        assert isinstance(result.report, StreamingReport)
        assert result.events > 0

    def test_exact_aggregates(self, pair):
        memory_report, result = pair
        report = result.report
        records = memory_report.records
        assert report.count == len(records)
        assert report.cct_sum == sum(r.cct for r in records)
        assert report.average_cct() == memory_report.average_cct()
        assert report.min_cct == min(r.cct for r in records)
        assert report.max_cct == max(r.cct for r in records)
        assert report.switching_total == sum(r.switching_count for r in records)
        assert report.last_completion == max(r.completion_time for r in records)

    def test_category_counts(self, pair):
        memory_report, result = pair
        expected = {}
        for record in memory_report.records:
            key = record.category.value
            expected[key] = expected.get(key, 0) + 1
        assert result.report.category_counts == expected

    def test_percentiles_close_to_exact(self, pair):
        from repro.analysis.quantiles import ExactQuantiles, rank_error

        memory_report, result = pair
        oracle = ExactQuantiles()
        oracle.extend(memory_report.ccts())
        for p in (50, 95, 99):
            estimate = result.report.cct_percentile(p)
            assert rank_error(oracle, estimate, p / 100.0) <= 0.02

    def test_perf_includes_streaming_counters(self, pair):
        _, result = pair
        counts = result.perf.snapshot()["counts"]
        assert counts.get("events") == result.events
        assert "peak_rss_bytes" in counts
        # The counter froze at end-of-run; percentile queries since then
        # may have compressed further, so it is a lower bound.
        assert counts.get("sketch_merges", 0) <= result.report.digest.compressions

