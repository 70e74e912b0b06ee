#!/usr/bin/env python
"""Streaming million-coflow replay benchmark (bounded memory, flat rate).

Standalone CLI (not a pytest bench): replays a large synthetic arrival
stream through the streaming inter-Coflow engine, sampling RSS and event
throughput, then runs the reference-scale byte-identity and sketch
accuracy checks.  Writes ``BENCH_streaming.json`` at the repository root
and exits nonzero on any correctness violation or a peak-RSS ceiling
breach.

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py --coflows 5000 --assert-peak-rss-mb 512

``REPRO_STREAM_COFLOWS`` overrides the default stream length (CI smoke
uses it to shrink the run).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--coflows",
        type=int,
        default=int(os.environ.get("REPRO_STREAM_COFLOWS", "100000")),
        help="stream length (default 100000, or REPRO_STREAM_COFLOWS)",
    )
    parser.add_argument("--ports", type=int, default=40, help="fabric width")
    parser.add_argument(
        "--max-width", type=int, default=12, help="cap on Coflow width"
    )
    parser.add_argument("--seed", type=int, default=2016, help="stream seed")
    parser.add_argument(
        "--sample-every",
        type=int,
        default=2000,
        help="events between RSS/throughput samples",
    )
    parser.add_argument(
        "--assert-peak-rss-mb",
        type=float,
        default=None,
        help="hard ceiling on peak RSS (MB); exceeding it exits nonzero "
        "(the CI streaming smoke sets this)",
    )
    parser.add_argument(
        "--skip-reference",
        action="store_true",
        help="skip the 500-coflow byte-identity + sketch-accuracy check",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_streaming.json",
        help="where to write the JSON summary",
    )
    args = parser.parse_args(argv)

    from repro.perf import bench_provenance
    from repro.perf.streaming_bench import run_reference_check, run_streaming_bench

    result = run_streaming_bench(
        num_coflows=args.coflows,
        num_ports=args.ports,
        max_width=args.max_width,
        seed=args.seed,
        sample_every=args.sample_every,
    )
    result["provenance"] = bench_provenance()

    failures = []
    if not args.skip_reference:
        result["reference_check"] = reference = run_reference_check()
        if not reference["identical"]:
            failures.append(
                "streaming engine diverged from the in-memory engine on the "
                "500-coflow reference replay"
            )
        if not reference["sketch_ok"]:
            failures.append(
                f"sketch rank error {reference['sketch_worst_rank_error']:.4f} "
                f"exceeds the documented bound "
                f"{reference['sketch_rank_error_bound']}"
            )

    peak = result.get("peak_rss_bytes")
    if args.assert_peak_rss_mb is not None:
        result["peak_rss_ceiling_mb"] = args.assert_peak_rss_mb
        if peak is None:
            failures.append("peak RSS unavailable but a ceiling was requested")
        elif peak > args.assert_peak_rss_mb * 1e6:
            failures.append(
                f"peak RSS {peak / 1e6:.0f} MB exceeds the "
                f"{args.assert_peak_rss_mb:.0f} MB ceiling"
            )

    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    summary = result["summary"]
    print(
        f"streamed {result['coflows_completed']} coflows / {result['events']} "
        f"events in {result['wall_s']:.2f}s "
        f"({result['events_per_sec']:.0f} events/s)"
    )
    peak_text = f"{peak / 1e6:.0f} MB" if peak else "n/a"
    rss_ratio = result.get("rss_growth_ratio")
    rate_ratio = result.get("throughput_ratio")
    print(
        f"memory: peak RSS {peak_text}, late/early RSS ratio "
        f"{rss_ratio:.3f}" if rss_ratio is not None else
        f"memory: peak RSS {peak_text} (run too short for a ratio)"
    )
    if rate_ratio is not None:
        print(f"throughput: second-half/first-half ratio {rate_ratio:.3f}")
    print(
        f"aggregates: mean CCT {summary['mean_cct_s']:.3f}s, "
        f"p95 {summary['p95_cct_s']:.3f}s, "
        f"{result['sketch_merges']} sketch merges, "
        f"{result['digest_centroids']} centroids retained"
    )
    if "reference_check" in result:
        reference = result["reference_check"]
        status = "byte-identical" if reference["identical"] else "DIVERGED"
        print(
            f"reference (500 coflows / 150 ports): {status}, "
            f"sketch worst rank error "
            f"{reference['sketch_worst_rank_error']:.4f} "
            f"(bound {reference['sketch_rank_error_bound']})"
        )

    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
