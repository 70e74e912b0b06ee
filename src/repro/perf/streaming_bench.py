"""Streaming-replay benchmark: flat memory and steady throughput at scale.

Two measurements back the streaming subsystem's claims:

* :func:`run_streaming_bench` replays a ≥100k-Coflow synthetic arrival
  stream through :func:`~repro.sim.streaming.simulate_inter_sunflow_stream`
  while sampling resident-set size and event throughput in fixed-size
  event windows.  Flat memory shows up as a late/early RSS ratio near
  1.0; steady throughput as a second-half/first-half events-per-second
  ratio near 1.0.  Nothing in the run is O(trace): the arrivals come
  from a generator and completions fold into a
  :class:`~repro.sim.streaming.StreamingReport`.

* :func:`run_reference_check` pins correctness at the committed
  reference scale (500 Coflows, 150 ports, seed 2016 — the same
  configuration as ``BENCH_trace_replay.json``): the streaming engine
  driven with an in-memory record sink must reproduce
  :func:`~repro.sim.circuit_sim.simulate_inter_sunflow` *byte-for-byte*,
  and the quantile sketch must stay within the documented rank-error
  bound against the exact oracle.

The CLI wrapper in ``benchmarks/bench_streaming.py`` dumps both as
``BENCH_streaming.json`` and turns any violation into a nonzero exit.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.perf import current_rss_bytes
from repro.perf.counters import PLAN_SUBTIMERS, PerfCounters

#: Rank-error bound the quantile sketch is documented (and asserted) to
#: meet at the default compression of 200.  See
#: :mod:`repro.analysis.quantiles` — measured worst-case is ~0.001.
SKETCH_RANK_ERROR_BOUND = 0.02

#: Quantiles the reference check measures sketch error at.
_CHECK_QUANTILES = (0.50, 0.90, 0.95, 0.99)


def run_streaming_bench(
    num_coflows: int = 100_000,
    num_ports: int = 40,
    max_width: Optional[int] = 12,
    seed: int = 2016,
    sample_every: int = 2_000,
) -> Dict[str, Any]:
    """Replay a large synthetic arrival stream; sample RSS and throughput.

    Args:
        num_coflows: stream length (the headline run uses 100k; CI smoke
            uses ~5k via ``REPRO_STREAM_COFLOWS``).
        num_ports: fabric width.  Smaller than the paper's 150 so the
            100k-Coflow run finishes in minutes — the memory claim is
            about trace length, not radix.
        max_width: Coflow width cap (keeps per-event planning cheap).
        seed: generator seed.
        sample_every: events between RSS/throughput samples.

    Returns:
        JSON-ready dict with the wall, aggregate summary, the RSS/event
        sample series, and the flatness/steadiness ratios.
    """
    from repro.sim.streaming import simulate_inter_sunflow_stream
    from repro.workloads.stream import stream_synthetic
    from repro.workloads.synthetic import GeneratorConfig

    config = GeneratorConfig(
        num_ports=num_ports,
        num_coflows=num_coflows,
        max_width=max_width,
        seed=seed,
    )

    samples: list = []
    state = {"events": 0, "last_events": 0, "last_wall": 0.0}
    start = time.perf_counter()

    def on_event(_event_time: float) -> None:
        state["events"] += 1
        if state["events"] % sample_every:
            return
        wall = time.perf_counter() - start
        window_events = state["events"] - state["last_events"]
        window_wall = wall - state["last_wall"]
        samples.append(
            {
                "events": state["events"],
                "wall_s": wall,
                "rss_bytes": current_rss_bytes(),
                "window_events_per_sec": (
                    window_events / window_wall if window_wall > 0 else None
                ),
            }
        )
        state["last_events"] = state["events"]
        state["last_wall"] = wall

    perf = PerfCounters()
    result = simulate_inter_sunflow_stream(
        stream_synthetic(config),
        bandwidth_bps=1e9,
        delta=0.01,
        perf=perf,
        on_event=on_event,
    )
    wall = time.perf_counter() - start

    counts = perf.snapshot()["counts"]
    payload: Dict[str, Any] = {
        "bench": "streaming_replay",
        "config": {
            "num_coflows": num_coflows,
            "num_ports": num_ports,
            "max_width": max_width,
            "seed": seed,
            "sample_every": sample_every,
        },
        "wall_s": wall,
        "events": result.events,
        "events_per_sec": result.events / wall if wall > 0 else None,
        "coflows_completed": result.report.count,
        "summary": result.report.summary(),
        "peak_rss_bytes": counts.get("peak_rss_bytes"),
        "sketch_merges": counts.get("sketch_merges", 0),
        # Same planner phase breakdown the trace-replay bench reports —
        # the streaming engine shares the hot path, so a phase
        # regressing here without regressing there points at the stream
        # loop, not the planner.
        "plan_phases_s": {name: perf.time(name) for name in PLAN_SUBTIMERS},
        "digest_centroids": result.report.digest.num_centroids(),
        "rss_samples": samples,
    }
    payload.update(_series_ratios(samples))
    return payload


def _series_ratios(samples: list) -> Dict[str, Optional[float]]:
    """Flat-memory and steady-throughput ratios from the sample series.

    ``rss_growth_ratio`` compares the final RSS sample against the one a
    quarter of the way in (past warm-up: interpreter, caches, and the
    high-water active set are all allocated by then) — a run whose memory
    scales with trace length would show this ratio growing with
    ``num_coflows``, while an O(active) run keeps it near 1.  The
    throughput ratio compares mean window events/sec between the second
    and first half of the run.
    """
    rss = [s["rss_bytes"] for s in samples if s["rss_bytes"] is not None]
    rates = [
        s["window_events_per_sec"]
        for s in samples
        if s["window_events_per_sec"] is not None
    ]
    ratios: Dict[str, Optional[float]] = {
        "rss_growth_ratio": None,
        "throughput_ratio": None,
    }
    if len(rss) >= 8:
        warm = rss[len(rss) // 4]
        if warm:
            ratios["rss_growth_ratio"] = rss[-1] / warm
    if len(rates) >= 8:
        half = len(rates) // 2
        first = sum(rates[:half]) / half
        second = sum(rates[half:]) / (len(rates) - half)
        if first > 0:
            ratios["throughput_ratio"] = second / first
    return ratios


def run_reference_check(
    num_coflows: int = 500,
    num_ports: int = 150,
    max_width: Optional[int] = None,
    seed: int = 2016,
) -> Dict[str, Any]:
    """Byte-identity and sketch-accuracy check at the reference scale.

    Runs the in-memory engine on the materialized trace and the streaming
    engine on the equivalent generator (with a full
    :class:`~repro.sim.results.SimulationReport` sink so records are
    comparable), then:

    * asserts every :class:`~repro.sim.results.CoflowRecord` is equal —
      dataclass equality covers completion times, switching counts,
      bounds, and categories bit-for-bit;
    * folds the same CCTs into a :class:`~repro.analysis.quantiles.\
QuantileDigest` and measures its rank error against the
      :class:`~repro.analysis.quantiles.ExactQuantiles` oracle at
      p50/p90/p95/p99, reporting the worst case against
      :data:`SKETCH_RANK_ERROR_BOUND`.

    Returns a JSON-ready dict; ``identical`` and ``sketch_ok`` are the
    pass/fail bits the CLI turns into exit codes.
    """
    from repro.analysis.quantiles import ExactQuantiles, QuantileDigest, rank_error
    from repro.sim.circuit_sim import simulate_inter_sunflow
    from repro.sim.results import SimulationReport
    from repro.sim.streaming import simulate_inter_sunflow_stream
    from repro.workloads.stream import stream_synthetic
    from repro.workloads.synthetic import FacebookLikeTraceGenerator, GeneratorConfig

    config = GeneratorConfig(
        num_ports=num_ports,
        num_coflows=num_coflows,
        max_width=max_width,
        seed=seed,
    )
    trace = FacebookLikeTraceGenerator(config).generate()

    start = time.perf_counter()
    memory_report = simulate_inter_sunflow(trace, 1e9, 0.01)
    memory_wall = time.perf_counter() - start

    sink = SimulationReport("sunflow", bandwidth_bps=1e9, delta=0.01)
    start = time.perf_counter()
    stream_result = simulate_inter_sunflow_stream(
        stream_synthetic(config), bandwidth_bps=1e9, delta=0.01, report=sink
    )
    stream_wall = time.perf_counter() - start

    identical = sink.records == memory_report.records

    digest = QuantileDigest()
    oracle = ExactQuantiles()
    for cct in memory_report.ccts():
        digest.add(cct)
        oracle.add(cct)
    errors = {
        f"q{q:.2f}": rank_error(oracle, digest.quantile(q), q)
        for q in _CHECK_QUANTILES
    }
    worst = max(errors.values())

    return {
        "check": "reference_byte_identity",
        "config": {
            "num_coflows": num_coflows,
            "num_ports": num_ports,
            "max_width": max_width,
            "seed": seed,
        },
        "identical": identical,
        "records": len(memory_report.records),
        "memory_wall_s": memory_wall,
        "stream_wall_s": stream_wall,
        "stream_events": stream_result.events,
        "sketch_rank_errors": errors,
        "sketch_worst_rank_error": worst,
        "sketch_rank_error_bound": SKETCH_RANK_ERROR_BOUND,
        "sketch_ok": worst <= SKETCH_RANK_ERROR_BOUND,
    }


__all__ = [
    "SKETCH_RANK_ERROR_BOUND",
    "run_streaming_bench",
    "run_reference_check",
]
