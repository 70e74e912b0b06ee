#!/usr/bin/env python
"""K-core fabric benchmark (CCT vs lower bound over K ∈ {1, 2, 4, 8}).

Standalone CLI (not a pytest bench): replays a synthetic Facebook-like
trace over 1, 2, 4 and 8 switch cores in both service modes (Fig-6-style
intra, Fig-10-style inter) and every placement policy, reports the mean
CCT normalized by the K-core circuit lower bound, verifies the K = 1
cells bitwise against the single-switch replay, and writes the summary
to ``BENCH_multicore.json`` at the repository root.

    PYTHONPATH=src python benchmarks/bench_multicore.py
    PYTHONPATH=src python benchmarks/bench_multicore.py --coflows 80 --cores 1 2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coflows", type=int, default=200, help="trace length")
    parser.add_argument("--ports", type=int, default=150, help="switch radix")
    parser.add_argument(
        "--max-width",
        type=int,
        default=40,
        help="cap on Coflow width (default 40, keeps the 8-core cell quick)",
    )
    parser.add_argument("--seed", type=int, default=2016, help="trace seed")
    parser.add_argument(
        "--cores",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="fabric widths to sweep",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_multicore.json",
        help="where to write the JSON summary",
    )
    args = parser.parse_args(argv)

    from repro.perf.multicore_bench import run_multicore_sweep

    result = run_multicore_sweep(
        num_coflows=args.coflows,
        num_ports=args.ports,
        max_width=args.max_width,
        seed=args.seed,
        cores_list=args.cores,
    )

    from repro.perf import bench_provenance

    result["provenance"] = bench_provenance()

    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(
        f"multicore sweep: {result['wall_s']:.2f}s over "
        f"K={result['config']['cores']}, "
        f"{result['config']['num_coflows']} coflows"
    )
    for cell in result["cells"]:
        ratio = cell["cct_vs_circuit_bound"]
        print(
            f"  {cell['mode']:<5} {cell['policy']:<14} K={cell['num_cores']}: "
            f"mean CCT {cell['mean_cct_s']:.3f}s, "
            f"CCT/bound {ratio if ratio is None else f'{ratio:.3f}'}"
        )
    if result["differential_mismatches"]:
        print(
            f"ERROR: {result['differential_mismatches']} differential "
            "mismatch(es) — K-core replay disagrees with its references",
            file=sys.stderr,
        )
        return 1
    print("differential: 0 mismatches (K=1 bitwise with the single switch)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
