#!/usr/bin/env python
"""End-to-end trace-replay benchmark of the inter-Coflow replanner.

Standalone CLI (not a pytest bench): replays a synthetic Facebook-like
trace through the inter-Coflow simulator and writes the timing summary to
``BENCH_trace_replay.json`` at the repository root.  With
``--compare-backends`` it also replays under the python and native
planners and exits non-zero unless both produce identical records.

    PYTHONPATH=src python benchmarks/bench_trace_replay.py
    PYTHONPATH=src python benchmarks/bench_trace_replay.py --coflows 120 --max-width 30
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _compare_backends(args, run_trace_replay) -> dict:
    """Replay the same trace under the python and native planner backends.

    The planners are bitwise twins, so the two runs' records (completion
    times, switching counts, event times) and perf-counter counts (events,
    plans computed, reservations made) must be identical — any divergence
    is a kernel bug, not noise.
    """
    from repro.core.sunflow import native_planner_available
    from repro.backend import use_backend

    if not native_planner_available():
        return {
            "native_available": False,
            "note": "repro._native is not built; skipped "
            "(python setup.py build_ext --inplace)",
        }

    comparison: dict = {"native_available": True}
    runs = {}
    for backend in ("python", "native"):
        with use_backend(backend):
            run = runs[backend] = run_trace_replay(
                num_coflows=args.coflows,
                num_ports=args.ports,
                max_width=args.max_width,
                seed=args.seed,
            )
        comparison[backend] = {
            "wall_s": run["wall_s"],
            "plan_timer_s": run["counters"]["timers_s"]["plan"],
            "plan_phases_s": run["plan_phases_s"],
        }
    comparison["records_identical"] = (
        runs["python"]["records_sha256"] == runs["native"]["records_sha256"]
    )
    if not comparison["records_identical"]:
        comparison["error"] = "python and native backends produced different records"
        return comparison
    counts = {backend: run["counters"]["counts"] for backend, run in runs.items()}
    comparison["counters_identical"] = counts["python"] == counts["native"]
    if not comparison["counters_identical"]:
        diff = {
            key: (counts["python"].get(key), counts["native"].get(key))
            for key in set(counts["python"]) | set(counts["native"])
            if counts["python"].get(key) != counts["native"].get(key)
        }
        comparison["counter_diff"] = diff
        comparison["error"] = "python and native backends diverged: " + ", ".join(
            f"{key} {py_val} vs {nat_val}" for key, (py_val, nat_val) in diff.items()
        )
        return comparison
    py_plan = comparison["python"]["plan_timer_s"]
    nat_plan = comparison["native"]["plan_timer_s"]
    comparison["plan_speedup"] = py_plan / nat_plan if nat_plan > 0 else None
    comparison["wall_speedup"] = (
        comparison["python"]["wall_s"] / comparison["native"]["wall_s"]
        if comparison["native"]["wall_s"] > 0
        else None
    )
    return comparison


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coflows", type=int, default=500, help="trace length")
    parser.add_argument("--ports", type=int, default=150, help="switch radix")
    parser.add_argument(
        "--max-width",
        type=int,
        default=None,
        help="cap on Coflow width (default: unbounded, paper scale)",
    )
    parser.add_argument("--seed", type=int, default=2016, help="trace seed")
    parser.add_argument(
        "--compare-backends",
        action="store_true",
        help="also replay under REPRO_KERNEL=python and REPRO_KERNEL=native "
        "and record wall + plan-timer for each (requires the repro._native "
        "extension; the two runs' records must be identical)",
    )
    parser.add_argument(
        "--baseline-s",
        type=float,
        default=None,
        help="wall seconds of a reference run (e.g. the pre-optimization "
        "replanner on the same machine and config) to record a speedup "
        "against",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_trace_replay.json",
        help="where to write the JSON summary",
    )
    args = parser.parse_args(argv)

    from repro.perf import bench_provenance
    from repro.perf.replay_bench import run_trace_replay

    result = run_trace_replay(
        num_coflows=args.coflows,
        num_ports=args.ports,
        max_width=args.max_width,
        seed=args.seed,
    )
    result["provenance"] = bench_provenance()

    if args.compare_backends:
        comparison = _compare_backends(args, run_trace_replay)
        result["backend_comparison"] = comparison
        if comparison.get("error"):
            print(f"ERROR: {comparison['error']}", file=sys.stderr)
            args.output.write_text(json.dumps(result, indent=2) + "\n")
            return 1

    if args.baseline_s:
        result["baseline_wall_s"] = args.baseline_s
        result["speedup_vs_baseline"] = args.baseline_s / result["wall_s"]

    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(
        f"replay: {result['wall_s']:.2f}s over {result['events']} events, "
        f"{result['coflows']} coflows"
    )
    phases = result.get("plan_phases_s", {})
    if phases:
        print(
            "plan phases: "
            + ", ".join(f"{name} {seconds:.3f}s" for name, seconds in phases.items())
        )
    if "backend_comparison" in result and result["backend_comparison"].get(
        "native_available"
    ):
        comparison = result["backend_comparison"]
        print(
            "backend comparison: "
            f"python plan {comparison['python']['plan_timer_s']:.2f}s / "
            f"wall {comparison['python']['wall_s']:.2f}s, "
            f"native plan {comparison['native']['plan_timer_s']:.2f}s / "
            f"wall {comparison['native']['wall_s']:.2f}s "
            f"(plan speedup {comparison['plan_speedup']:.2f}x, identical records)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
