"""End-to-end trace-replay benchmark for the inter-Coflow replanner.

Replays a synthetic Facebook-like trace (§5.1's 150-port fabric) through
:class:`~repro.sim.circuit_sim.InterCoflowSimulator` on the selected
planner backend, measures the wall time and its ``plan.*`` phases, and
fingerprints every Coflow's completion time and switching count so two
runs (the CLI's python-vs-native comparison) can be checked for bitwise
agreement.  The CLI wrapper in ``benchmarks/bench_trace_replay.py`` dumps
the result as ``BENCH_trace_replay.json``.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, Optional

from repro.perf.counters import PLAN_SUBTIMERS, PerfCounters


def records_sha256(records, event_times) -> str:
    """SHA-256 of the id-sorted ``(coflow_id, completion_time.hex(),
    switching_count)`` rows plus the hex event times of one replay."""
    rows = [
        (r.coflow_id, r.completion_time.hex(), r.switching_count)
        for r in sorted(records, key=lambda r: r.coflow_id)
    ]
    payload = (rows, [t.hex() for t in event_times])
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def run_trace_replay(
    num_coflows: int = 500,
    num_ports: int = 150,
    max_width: Optional[int] = None,
    seed: int = 2016,
) -> Dict[str, Any]:
    """Run the replay benchmark; returns a JSON-ready result dict.

    Args:
        num_coflows: trace length (the headline configuration uses 500).
        num_ports: switch radix (the paper's fabric has 150 ports).
        max_width: cap on Coflow width, ``None`` for unbounded (paper
            scale — wide Coflows are what make replanning expensive).
        seed: trace generator seed.

    Returns:
        ``{"bench": "trace_replay", "wall_s": ..., "events": ...,
        "coflows": ..., "records_sha256": ..., ...}`` plus the run's
        ``plan.*`` phase times and perf counters.
    """
    # Imported here so ``repro.perf`` stays importable without the
    # simulation stack.
    from repro.sim.circuit_sim import InterCoflowSimulator
    from repro.workloads.synthetic import FacebookLikeTraceGenerator, GeneratorConfig

    config = GeneratorConfig(
        num_ports=num_ports,
        num_coflows=num_coflows,
        max_width=max_width,
        seed=seed,
    )
    trace = FacebookLikeTraceGenerator(config).generate()

    perf = PerfCounters()
    simulator = InterCoflowSimulator(trace, perf=perf)
    start = time.perf_counter()
    report = simulator.run()
    wall = time.perf_counter() - start

    events = perf.count("events")
    return {
        "bench": "trace_replay",
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else None,
        "coflows": len(report.records),
        "config": {
            "num_coflows": num_coflows,
            "num_ports": num_ports,
            "max_width": max_width,
            "seed": seed,
        },
        "records_sha256": records_sha256(report.records, simulator.event_times),
        # Where the ``plan`` timer's time went (see ``PLAN_SUBTIMERS``).
        # Keys are always present (0.0 when a phase never ran) so smoke
        # checks can assert the instrumentation survived refactors.
        "plan_phases_s": {name: perf.time(name) for name in PLAN_SUBTIMERS},
        "counters": perf.snapshot(),
    }
