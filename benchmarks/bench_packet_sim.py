#!/usr/bin/env python
"""Fluid packet-simulator benchmark (vectorized engine vs dict-based engine).

Standalone CLI (not a pytest bench): replays a 150-port Facebook-like
trace through the fluid packet simulator under both engines — the
struct-of-arrays :class:`~repro.sim.packet_vector.VectorPacketSimulator`
and the dict-based :class:`~repro.sim.packet_sim.PacketSimulator`
— for a Varys (SEBF + MADD) scenario and an Aalo (D-CLAS) scenario,
verifies the event sequences and CCT records are bitwise identical, and
writes the timing summary plus the packet layer's perf counters to
``BENCH_packet_sim.json`` at the repository root.

The Varys scenario uses a shuffle-heavy category mix (wide many-to-many
Coflows are where the array layout pays off most); the Aalo scenario
keeps the paper's Facebook mix.  Walls are min-of-``--repeats`` to damp
scheduler noise on loaded machines.

    PYTHONPATH=src python benchmarks/bench_packet_sim.py
    PYTHONPATH=src python benchmarks/bench_packet_sim.py --scenarios aalo --repeats 1
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

#: Minimum vector-over-reference speedup each scenario must sustain.
SPEEDUP_TARGETS = {"varys": 5.0, "aalo": 4.0}


def make_scenarios():
    """Benchmark scenarios: (allocator factory, trace config, bandwidth)."""
    from repro.sim.aalo import AaloAllocator
    from repro.sim.varys import VarysAllocator
    from repro.workloads.synthetic import CategoryMix, GeneratorConfig

    shuffle_mix = CategoryMix(
        one_to_one=0.1, one_to_many=0.1, many_to_one=0.2, many_to_many=0.6
    )
    return {
        "varys": {
            "allocator": VarysAllocator,
            "config": GeneratorConfig(
                num_ports=150,
                num_coflows=600,
                max_width=None,
                mean_interarrival=0.7,
                mix=shuffle_mix,
                seed=2016,
            ),
            "bandwidth_bps": 5e8,
        },
        "aalo": {
            "allocator": AaloAllocator,
            "config": GeneratorConfig(
                num_ports=150,
                num_coflows=526,
                max_width=None,
                mean_interarrival=0.68,
                seed=2016,
            ),
            "bandwidth_bps": 1e9,
        },
    }


def compare_runs(vector_sim, vector_report, reference_sim, reference_report) -> int:
    """Count event-sequence and CCT-record mismatches between the engines.

    Both engines advertise bitwise identity, so the comparison is exact
    equality — no tolerances.
    """
    mismatches = 0
    if vector_sim.event_times != reference_sim.event_times:
        paired = zip(vector_sim.event_times, reference_sim.event_times)
        mismatches += sum(1 for ours, theirs in paired if ours != theirs)
        mismatches += abs(
            len(vector_sim.event_times) - len(reference_sim.event_times)
        )
    if len(vector_report.records) != len(reference_report.records):
        mismatches += abs(len(vector_report.records) - len(reference_report.records))
    for ours, theirs in zip(vector_report.records, reference_report.records):
        if (
            ours.coflow_id != theirs.coflow_id
            or ours.completion_time != theirs.completion_time
            or ours.arrival_time != theirs.arrival_time
        ):
            mismatches += 1
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        help="subset of scenarios to run (default: varys aalo)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repeats per engine; walls are the minimum",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_packet_sim.json",
        help="where to write the JSON summary",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    from repro.perf import packet_counters
    from repro.sim.packet_sim import PacketSimulator
    from repro.sim.packet_vector import VectorPacketSimulator
    from repro.workloads.synthetic import FacebookLikeTraceGenerator

    scenarios = make_scenarios()
    names = args.scenarios or list(scenarios)
    unknown = [name for name in names if name not in scenarios]
    if unknown:
        parser.error(f"unknown scenarios: {', '.join(unknown)}")

    result = {
        "bench": "packet_sim",
        "repeats": args.repeats,
        "speedup_targets": dict(SPEEDUP_TARGETS),
        "scenarios": {},
    }
    total_mismatches = 0
    shortfalls = []

    for name in names:
        scenario = scenarios[name]
        config = scenario["config"]
        bandwidth = scenario["bandwidth_bps"]
        trace = FacebookLikeTraceGenerator(config).generate()

        vector_walls, reference_walls = [], []
        vector_sim = vector_report = reference_sim = reference_report = None
        counters = None
        for _ in range(args.repeats):
            packet_counters.reset()
            start = time.perf_counter()
            vector_sim = VectorPacketSimulator(trace, scenario["allocator"](), bandwidth)
            vector_report = vector_sim.run()
            vector_walls.append(time.perf_counter() - start)
            counters = packet_counters.snapshot()["counts"]

            start = time.perf_counter()
            reference_sim = PacketSimulator(
                trace, scenario["allocator"](), bandwidth
            )
            reference_report = reference_sim.run()
            reference_walls.append(time.perf_counter() - start)

        vector_wall = min(vector_walls)
        reference_wall = min(reference_walls)
        mismatches = compare_runs(
            vector_sim, vector_report, reference_sim, reference_report
        )
        total_mismatches += mismatches
        speedup = reference_wall / vector_wall if vector_wall > 0 else None
        result["scenarios"][name] = {
            "config": {
                "ports": config.num_ports,
                "coflows": config.num_coflows,
                "mean_interarrival": config.mean_interarrival,
                "bandwidth_bps": bandwidth,
                "seed": config.seed,
                "mix": {
                    "one_to_one": config.mix.one_to_one,
                    "one_to_many": config.mix.one_to_many,
                    "many_to_one": config.mix.many_to_one,
                    "many_to_many": config.mix.many_to_many,
                },
            },
            "vector_wall_s": vector_wall,
            "reference_wall_s": reference_wall,
            "speedup": speedup,
            "events": len(vector_sim.event_times),
            "records": len(vector_report.records),
            "mismatches": mismatches,
            "packet_counters": counters,
        }
        print(
            f"{name}: vector {vector_wall:.3f}s, reference {reference_wall:.3f}s, "
            f"speedup {speedup:.2f}x, {len(vector_sim.event_times)} events, "
            f"{mismatches} mismatches"
        )
        if speedup < SPEEDUP_TARGETS[name]:
            shortfalls.append((name, speedup))

    result["mismatches"] = total_mismatches
    result["targets_met"] = not shortfalls

    from repro.perf import bench_provenance

    result["provenance"] = bench_provenance()
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    if total_mismatches:
        print(
            f"ERROR: {total_mismatches} event/record mismatches between engines",
            file=sys.stderr,
        )
        return 1
    for name, speedup in shortfalls:
        print(
            f"WARNING: {name} speedup {speedup:.2f}x below the "
            f"{SPEEDUP_TARGETS[name]:.0f}x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
