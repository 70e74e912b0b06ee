"""Command-line interface: ``repro-sunflow`` (or ``python -m repro``).

Subcommands mirror the evaluation workflow:

* ``generate`` — synthesize a Facebook-like trace file,
* ``classify`` — Table-4 category breakdown of a trace,
* ``idleness`` — the §5.4 network-idleness metric,
* ``stats``    — workload statistics (widths, sizes, arrivals),
* ``intra``    — back-to-back Coflow service (Sunflow / Solstice / TMS /
  Edmond) with CCT-vs-bound summaries,
* ``inter``    — full trace replay (Sunflow / Varys / Aalo) with average
  CCT summaries,
* ``compare``  — all schedulers side by side,
* ``replay``   — inter-Coflow Sunflow replay of a text or binary trace;
  ``--stream`` runs it through the bounded-memory streaming engine
  (quantile sketch instead of per-Coflow records, O(active) state),
* ``convert``  — text trace → binary streaming trace (``SFTR``) in O(1)
  memory,
* ``timeline`` — ASCII rendering of one Coflow's circuit schedule,
* ``sweep``    — run a declarative experiment grid (TOML/JSON
  :class:`~repro.sweep.SweepSpec`) through the process-parallel sweep
  engine with a content-hash result cache.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import classify, network_idleness
from repro.core.policies import POLICIES
from repro.schedulers import EdmondScheduler, SolsticeScheduler, TmsScheduler
from repro.sim import (
    AaloAllocator,
    VarysAllocator,
    mean,
    percentile,
    simulate_inter_sunflow,
    simulate_intra_assignment,
    simulate_intra_sunflow,
    simulate_packet,
)
from repro.units import GBPS, MS
from repro.workloads import (
    GeneratorConfig,
    FacebookLikeTraceGenerator,
    parse_trace,
    perturb_sizes,
    write_trace,
)

_INTRA_SCHEDULERS = ("sunflow", "solstice", "tms", "edmond")
_INTER_SCHEDULERS = ("sunflow", "varys", "aalo")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="path to a coflow-benchmark format trace file")


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bandwidth-gbps", type=float, default=1.0, help="link rate B (default 1 Gbps)"
    )
    parser.add_argument(
        "--delta-ms", type=float, default=10.0, help="reconfiguration delay δ (default 10 ms)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sunflow",
        description="Sunflow (CoNEXT 2016) reproduction toolkit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the top 25 functions "
        "by cumulative time to stderr (goes before the subcommand, e.g. "
        "`repro-sunflow --profile inter trace.txt`)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="with --profile, also dump the raw cProfile stats to PATH "
        "(loadable with pstats or snakeviz) and trim the stderr report "
        "to the top 20 functions",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesize a Facebook-like trace")
    generate.add_argument("output", help="trace file to write")
    generate.add_argument("--coflows", type=int, default=526)
    generate.add_argument("--ports", type=int, default=150)
    generate.add_argument("--seed", type=int, default=2016)
    generate.add_argument(
        "--max-width", type=int, default=None, help="cap on M2M mapper/reducer counts"
    )
    generate.add_argument(
        "--perturb", action="store_true", help="apply the paper's ±5%% size noise"
    )

    classify_cmd = commands.add_parser("classify", help="Table-4 category breakdown")
    _add_trace_argument(classify_cmd)

    stats = commands.add_parser("stats", help="workload statistics summary")
    _add_trace_argument(stats)

    idleness_cmd = commands.add_parser("idleness", help="network idleness (§5.4)")
    _add_trace_argument(idleness_cmd)
    _add_network_arguments(idleness_cmd)

    intra = commands.add_parser("intra", help="back-to-back Coflow service (§5.3)")
    _add_trace_argument(intra)
    _add_network_arguments(intra)
    intra.add_argument("--scheduler", choices=_INTRA_SCHEDULERS, default="sunflow")

    inter = commands.add_parser("inter", help="trace replay with arrivals (§5.4)")
    _add_trace_argument(inter)
    _add_network_arguments(inter)
    inter.add_argument("--scheduler", choices=_INTER_SCHEDULERS, default="sunflow")
    inter.add_argument(
        "--policy",
        choices=sorted(POLICIES),
        default="shortest-first",
        help="inter-Coflow priority policy (Sunflow only)",
    )

    replay = commands.add_parser(
        "replay",
        help="inter-Coflow Sunflow replay (text or binary trace); "
        "--stream uses the bounded-memory streaming engine",
    )
    replay.add_argument(
        "trace", help="path to a text (coflow-benchmark) or binary (SFTR) trace"
    )
    _add_network_arguments(replay)
    replay.add_argument(
        "--policy",
        choices=sorted(POLICIES),
        default="shortest-first",
        help="inter-Coflow priority policy",
    )
    replay.add_argument(
        "--stream",
        action="store_true",
        help="stream arrivals from disk: O(active) memory, CCT quantile "
        "sketch instead of per-Coflow records",
    )
    replay.add_argument(
        "--digest-compression",
        type=int,
        default=200,
        help="streaming CCT sketch compression δ (memory and rank error "
        "both scale with it; default 200)",
    )

    convert = commands.add_parser(
        "convert",
        help="convert a text trace to the binary streaming format (SFTR)",
    )
    convert.add_argument("trace", help="text trace file to read")
    convert.add_argument("output", help="binary SFTR file to write")

    compare = commands.add_parser(
        "compare", help="run every scheduler on a trace and tabulate CCTs"
    )
    _add_trace_argument(compare)
    _add_network_arguments(compare)
    compare.add_argument(
        "--mode", choices=("intra", "inter"), default="intra",
        help="back-to-back service or full arrivals replay",
    )

    timeline = commands.add_parser(
        "timeline", help="render one Coflow's Sunflow circuit schedule as ASCII"
    )
    _add_trace_argument(timeline)
    _add_network_arguments(timeline)
    timeline.add_argument("--coflow-id", type=int, required=True)
    timeline.add_argument("--width", type=int, default=72)

    export = commands.add_parser(
        "export", help="simulate and write per-Coflow records as CSV"
    )
    _add_trace_argument(export)
    _add_network_arguments(export)
    export.add_argument("output", help="CSV file to write")
    export.add_argument(
        "--scheduler",
        choices=_INTRA_SCHEDULERS + ("varys", "aalo"),
        default="sunflow",
    )
    export.add_argument(
        "--mode", choices=("intra", "inter"), default="intra",
        help="back-to-back service or full arrivals replay",
    )

    sweep = commands.add_parser(
        "sweep", help="run a declarative experiment grid (repro.sweep)"
    )
    sweep.add_argument("spec", help="path to a TOML or JSON SweepSpec grid file")
    sweep.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = serial in-process, identical results)",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="content-hash result cache; re-runs recompute only changed cells",
    )
    sweep.add_argument(
        "--output-dir", default=None,
        help="write sweep.json + cells.csv here",
    )
    sweep.add_argument(
        "--timeout-s", type=float, default=None,
        help="per-cell wall-clock budget; late cells record a timeout result",
    )
    return parser


def _print_cct_summary(label: str, values: List[float]) -> None:
    print(
        f"{label}: mean {mean(values):.3f}  median {percentile(values, 50):.3f}  "
        f"p95 {percentile(values, 95):.3f}  max {max(values):.3f}"
    )


def _run_replay(args: argparse.Namespace) -> int:
    """The ``replay`` subcommand: streaming or in-memory Sunflow replay."""
    import time

    bandwidth = args.bandwidth_gbps * GBPS
    delta = args.delta_ms * MS
    policy = POLICIES[args.policy]

    if args.stream:
        from repro.sim.streaming import simulate_inter_sunflow_stream
        from repro.workloads.stream import open_any_trace

        start = time.perf_counter()
        result = simulate_inter_sunflow_stream(
            open_any_trace(args.trace),
            bandwidth_bps=bandwidth,
            delta=delta,
            policy=policy,
            digest_compression=args.digest_compression,
        )
        wall = time.perf_counter() - start
        summary = result.report.summary()
        print(
            f"CCT (s): mean {summary['mean_cct_s']:.3f}  "
            f"median {summary['median_cct_s']:.3f}  "
            f"p95 {summary['p95_cct_s']:.3f}  max {summary['max_cct_s']:.3f}"
        )
        print(
            f"average CCT: {summary['mean_cct_s']:.3f} s over "
            f"{summary['count']} coflows (streaming)"
        )
        counters = (
            result.perf.snapshot()["counts"] if result.perf is not None else {}
        )
        peak = counters.get("peak_rss_bytes")
        peak_text = f"{peak / 1e6:.0f} MB" if peak else "n/a"
        print(
            f"{result.events} events in {wall:.2f} s "
            f"({result.events / wall:.0f} events/s), peak RSS {peak_text}, "
            f"{counters.get('sketch_merges', 0)} sketch merges"
        )
        return 0

    from repro.workloads.stream import is_stream_trace, read_stream_trace

    if is_stream_trace(args.trace):
        trace = read_stream_trace(args.trace)
    else:
        trace = parse_trace(args.trace)
    report = simulate_inter_sunflow(trace, bandwidth, delta, policy=policy)
    _print_cct_summary("CCT (s)", report.ccts())
    print(f"average CCT: {report.average_cct():.3f} s over {len(report)} coflows")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile_out and not args.profile:
        build_parser().error("--profile-out requires --profile")
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        try:
            return profiler.runcall(_dispatch, args)
        finally:
            if args.profile_out:
                # Raw stats for offline tooling; keep the inline report
                # short since the full data is on disk.
                profiler.dump_stats(args.profile_out)
                print(f"profile stats written to {args.profile_out}", file=sys.stderr)
                limit = 20
            else:
                limit = 25
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(limit)
            _print_plan_subtimers()
    return _dispatch(args)


def _print_plan_subtimers() -> None:
    """Append the planner phase breakdown to a profile report.

    cProfile attributes native-kernel time to opaque built-in frames; the
    ``plan.*`` sub-timers recover the phase structure (packing, kernel)
    regardless of backend.
    """
    from repro.perf import PLAN_SUBTIMERS, process_timers

    timers = process_timers()
    rows = [(name, timers[name]) for name in PLAN_SUBTIMERS if name in timers]
    if not rows:
        return
    print("plan phase breakdown (s):", file=sys.stderr)
    for name, seconds in rows:
        print(f"  {name:<16} {seconds:10.4f}", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        config = GeneratorConfig(
            num_ports=args.ports,
            num_coflows=args.coflows,
            max_width=args.max_width,
            seed=args.seed,
        )
        trace = FacebookLikeTraceGenerator(config).generate()
        if args.perturb:
            trace = perturb_sizes(trace, seed=args.seed)
        write_trace(trace, args.output)
        print(
            f"wrote {len(trace)} coflows on {trace.num_ports} ports "
            f"({trace.total_bytes / 1e9:.1f} GB) to {args.output}"
        )
        return 0

    if args.command == "sweep":
        from repro.sweep import SweepRunner, SweepSpec

        spec = SweepSpec.from_file(args.spec)

        def show_progress(progress) -> None:
            eta = (
                f"{progress.eta_s:.0f}s" if progress.done < progress.total else "done"
            )
            print(
                f"[{progress.done}/{progress.total}] "
                f"{progress.cached} cached, {progress.failed} failed, ETA {eta}"
            )

        result = SweepRunner(
            spec,
            workers=args.workers,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout_s,
            progress=show_progress,
        ).run()

        print(f"{'cell':<48} {'status':>8} {'avg CCT':>9} {'wall':>8}")
        for outcome in result.outcomes:
            avg = outcome.summary().get("average_cct")
            avg_text = f"{avg:>8.3f}s" if avg is not None else f"{'-':>9}"
            print(
                f"{outcome.cell_id:<48} {outcome.status:>8} {avg_text} "
                f"{outcome.wall_s:>7.2f}s"
            )
        print(
            f"sweep {result.name!r}: {len(result)} cells in {result.wall_s:.2f}s "
            f"({result.cache_hits} cached, {len(result.failures())} failed, "
            f"{result.workers} workers)"
        )
        if args.output_dir:
            json_path, csv_path = result.write(args.output_dir)
            print(f"wrote {json_path} and {csv_path}")
        return 1 if result.failures() else 0

    if args.command == "convert":
        from repro.workloads.stream import convert_text_trace

        count = convert_text_trace(args.trace, args.output)
        print(f"wrote {count} coflows to {args.output} (binary SFTR)")
        return 0

    if args.command == "replay":
        return _run_replay(args)

    trace = parse_trace(args.trace)

    if args.command == "stats":
        from repro.analysis.tracestats import trace_statistics

        print(trace_statistics(trace).as_text())
        return 0

    if args.command == "classify":
        breakdown = classify(trace)
        print(f"{'category':>12} {'coflow %':>10} {'bytes %':>10}")
        for row in breakdown.as_table():
            print(
                f"{row['category']:>12} {row['coflow_percent']:>10.1f} "
                f"{row['bytes_percent']:>10.3f}"
            )
        return 0

    bandwidth = args.bandwidth_gbps * GBPS
    if args.command == "idleness":
        print(f"idleness: {network_idleness(trace, bandwidth):.3f}")
        return 0

    delta = args.delta_ms * MS
    if args.command == "intra":
        if args.scheduler == "sunflow":
            report = simulate_intra_sunflow(trace, bandwidth, delta)
        else:
            scheduler = {
                "solstice": SolsticeScheduler,
                "tms": TmsScheduler,
                "edmond": EdmondScheduler,
            }[args.scheduler]()
            report = simulate_intra_assignment(trace, scheduler, bandwidth, delta)
        _print_cct_summary("CCT (s)", report.ccts())
        _print_cct_summary(
            "CCT / TcL", [r.cct_over_circuit_lower for r in report.records]
        )
        _print_cct_summary(
            "CCT / TpL", [r.cct_over_packet_lower for r in report.records]
        )
        _print_cct_summary(
            "switching / minimum", [r.normalized_switching for r in report.records]
        )
        return 0

    if args.command == "inter":
        if args.scheduler == "sunflow":
            report = simulate_inter_sunflow(
                trace, bandwidth, delta, policy=POLICIES[args.policy]
            )
        elif args.scheduler == "varys":
            report = simulate_packet(trace, VarysAllocator(), bandwidth)
        else:
            report = simulate_packet(trace, AaloAllocator(), bandwidth)
        _print_cct_summary("CCT (s)", report.ccts())
        print(f"average CCT: {report.average_cct():.3f} s over {len(report)} coflows")
        return 0

    if args.command == "compare":
        if args.mode == "intra":
            reports = {"sunflow": simulate_intra_sunflow(trace, bandwidth, delta)}
            for scheduler in (SolsticeScheduler(), TmsScheduler(), EdmondScheduler()):
                reports[scheduler.name] = simulate_intra_assignment(
                    trace, scheduler, bandwidth, delta
                )
            print(f"{'scheduler':>10} {'avg CCT':>9} {'CCT/TcL':>8} {'switch/min':>11}")
            for name, report in reports.items():
                ratios = [r.cct_over_circuit_lower for r in report.records]
                switching = [r.normalized_switching for r in report.records]
                print(
                    f"{name:>10} {report.average_cct():>8.2f}s "
                    f"{mean(ratios):>8.2f} {mean(switching):>11.2f}"
                )
        else:
            reports = {
                "sunflow": simulate_inter_sunflow(trace, bandwidth, delta),
                "varys": simulate_packet(trace, VarysAllocator(), bandwidth),
                "aalo": simulate_packet(trace, AaloAllocator(), bandwidth),
            }
            print(f"{'scheduler':>10} {'avg CCT':>9} {'p95 CCT':>9}")
            for name, report in reports.items():
                ccts = report.ccts()
                print(
                    f"{name:>10} {mean(ccts):>8.2f}s {percentile(ccts, 95):>8.2f}s"
                )
        return 0

    if args.command == "timeline":
        from repro.analysis.timeline import render_timeline
        from repro.core.sunflow import SunflowScheduler

        matches = [c for c in trace if c.coflow_id == args.coflow_id]
        if not matches:
            print(f"no coflow with id {args.coflow_id} in the trace")
            return 1
        coflow = matches[0]
        schedule = SunflowScheduler(delta=delta).schedule_coflow(
            coflow, bandwidth, start_time=0.0
        )
        print(
            f"coflow {coflow.coflow_id}: |C| = {coflow.num_flows}, "
            f"{coflow.total_bytes / 1e6:.0f} MB, category {coflow.category.value}"
        )
        print(render_timeline(schedule.reservations, width=args.width))
        print(f"CCT = {schedule.makespan:.3f} s, {schedule.num_setups} setups")
        return 0

    if args.command == "export":
        from repro.analysis.export import write_records_csv

        if args.scheduler in ("varys", "aalo"):
            allocator = VarysAllocator() if args.scheduler == "varys" else AaloAllocator()
            report = simulate_packet(trace, allocator, bandwidth)
        elif args.scheduler == "sunflow":
            if args.mode == "inter":
                report = simulate_inter_sunflow(trace, bandwidth, delta)
            else:
                report = simulate_intra_sunflow(trace, bandwidth, delta)
        else:
            scheduler = {
                "solstice": SolsticeScheduler,
                "tms": TmsScheduler,
                "edmond": EdmondScheduler,
            }[args.scheduler]()
            report = simulate_intra_assignment(trace, scheduler, bandwidth, delta)
        count = write_records_csv(report, args.output)
        print(f"wrote {count} records to {args.output}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
