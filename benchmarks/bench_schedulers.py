#!/usr/bin/env python
"""Baseline-scheduler decomposition benchmark (numpy kernels vs oracles).

Standalone CLI (not a pytest bench): decomposes one 150-port random
demand matrix with each baseline scheduler on the numpy kernels and on
its pure-Python oracle pipeline (``tests/oracles/schedulers.py``, which
the script imports from the repository root), verifies the schedules are
identical (same circuits, durations within 1e-9 relative), and writes the
timing summary plus the kernel layer's perf counters to
``BENCH_schedulers.json`` at the repository root.

    PYTHONPATH=src python benchmarks/bench_schedulers.py
    PYTHONPATH=src python benchmarks/bench_schedulers.py --ports 80 --density 0.2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

#: Schedulers the kernel layer must accelerate by ``SPEEDUP_TARGET``.
TARGET_SCHEDULERS = ("solstice", "tms", "edmond")
SPEEDUP_TARGET = 4.0


def make_demand(ports: int, density: float, seed: int):
    """Random sparse demand (processing seconds) over the full fabric."""
    rng = random.Random(seed)
    demand = {}
    for src in range(ports):
        for dst in range(ports):
            if src != dst and rng.random() < density:
                demand[(src, dst)] = rng.random() * 0.5 + 0.01
    return demand


def compare_schedules(kernel, reference) -> int:
    """Count mismatched assignments between the kernel and oracle schedules."""
    if len(kernel.assignments) != len(reference.assignments):
        return abs(len(kernel.assignments) - len(reference.assignments)) + sum(
            1
            for ours, theirs in zip(kernel.assignments, reference.assignments)
            if ours.circuits != theirs.circuits
        )
    mismatches = 0
    for ours, theirs in zip(kernel.assignments, reference.assignments):
        if ours.circuits != theirs.circuits:
            mismatches += 1
            continue
        tolerance = 1e-9 * max(abs(ours.duration), abs(theirs.duration), 1e-12)
        if abs(ours.duration - theirs.duration) > tolerance:
            mismatches += 1
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ports", type=int, default=150, help="fabric radix")
    parser.add_argument(
        "--density", type=float, default=0.3, help="demand matrix fill fraction"
    )
    parser.add_argument("--seed", type=int, default=7, help="demand seed")
    parser.add_argument(
        "--schedulers",
        nargs="*",
        default=None,
        help="subset of schedulers to run (default: all four)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_schedulers.json",
        help="where to write the JSON summary",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from repro.perf import scheduler_counters
    from repro.schedulers import (
        BvnScheduler,
        EdmondScheduler,
        SolsticeScheduler,
        TmsScheduler,
    )
    from tests.oracles.schedulers import REFERENCE_SCHEDULERS

    available = {
        "solstice": SolsticeScheduler,
        "tms": TmsScheduler,
        "edmond": EdmondScheduler,
        "bvn": BvnScheduler,
    }
    names = args.schedulers or list(available)
    unknown = [name for name in names if name not in available]
    if unknown:
        parser.error(f"unknown schedulers: {', '.join(unknown)}")

    demand = make_demand(args.ports, args.density, args.seed)
    result = {
        "bench": "schedulers",
        "config": {
            "ports": args.ports,
            "density": args.density,
            "seed": args.seed,
            "entries": len(demand),
        },
        "speedup_target": SPEEDUP_TARGET,
        "target_schedulers": list(TARGET_SCHEDULERS),
        "schedulers": {},
    }
    total_mismatches = 0
    shortfalls = []

    for name in names:
        scheduler = available[name]()
        oracle = REFERENCE_SCHEDULERS[name]()

        scheduler_counters.reset()
        start = time.perf_counter()
        kernel_schedule = scheduler.schedule(demand, args.ports)
        kernel_wall = time.perf_counter() - start
        counters = scheduler_counters.snapshot()["counts"]

        start = time.perf_counter()
        reference_schedule = oracle.schedule(demand, args.ports)
        reference_wall = time.perf_counter() - start

        mismatches = compare_schedules(kernel_schedule, reference_schedule)
        total_mismatches += mismatches
        speedup = reference_wall / kernel_wall if kernel_wall > 0 else None
        result["schedulers"][name] = {
            "kernel_wall_s": kernel_wall,
            "reference_wall_s": reference_wall,
            "speedup": speedup,
            "assignments": len(kernel_schedule.assignments),
            "mismatches": mismatches,
            "counters": counters,
        }
        print(
            f"{name}: kernel {kernel_wall:.3f}s, reference {reference_wall:.3f}s, "
            f"speedup {speedup:.2f}x, {len(kernel_schedule.assignments)} "
            f"assignments, {mismatches} mismatches"
        )
        if name in TARGET_SCHEDULERS and speedup < SPEEDUP_TARGET:
            shortfalls.append((name, speedup))

    result["mismatches"] = total_mismatches
    result["targets_met"] = not shortfalls

    from repro.perf import bench_provenance

    result["provenance"] = bench_provenance()
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    if total_mismatches:
        print(
            f"ERROR: {total_mismatches} schedule mismatches between kernels and oracles",
            file=sys.stderr,
        )
        return 1
    for name, speedup in shortfalls:
        print(
            f"WARNING: {name} speedup {speedup:.2f}x below the "
            f"{SPEEDUP_TARGET:.0f}x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
