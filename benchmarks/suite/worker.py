"""Measure one workload in this process and print the result as JSON.

``run.py`` starts one of these per workload run (and a few more with
``--setup-only`` to time set-up in fresh processes), with ``PYTHONPATH``
pointing at the installed copy of the tree under test.  Set-up time is
counted from the first line of this file, so it covers importing
``repro`` and building the inputs.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import repro.perf as perf_mod  # noqa: E402

from measure import (  # noqa: E402
    MIN_TAIL,
    REFERENCE_PROBE_S,
    columnwise_median,
    percentile,
    speed_probe,
    tail_percentile,
)
from paper_workloads import GOLDEN_SEED, WORKLOADS, PassResult, Workload  # noqa: E402
from spans import SpanRecorder, write_jsonl  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
#: Fewest timed passes of an end-to-end run, so a median over passes
#: outvotes one disturbed pass.
MIN_PASSES = 3

#: End-to-end metrics a worker measures (``setup_s`` is combined by
#: ``run.py`` over several fresh processes).
E2E_UNITS = {
    "coflows_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "peak_rss_mb": "MiB",
    "cct_mean_s": "sim_s",
    "cct_ratio_mean": "ratio",
}


def _count(key: str, amount):
    def on_return(counts, args, result):
        counts[key] = counts.get(key, 0) + amount(args, result)

    return on_return


def _replans(args, output) -> int:
    return int(bool(output.commands or output.teardowns or output.ticks))


#: ``(span name, target, on_return)``: the public callables a traced
#: pass wraps, each on the attribute its caller looks up at call time.
PASS_TARGETS = [
    ("sim.circuit_sim.admit", "repro.sim.circuit_sim:InterCoflowSimulator.admit", None),
    ("sim.circuit_sim.plan", "repro.sim.circuit_sim:InterCoflowSimulator.plan", None),
    ("sim.circuit_sim.advance", "repro.sim.circuit_sim:InterCoflowSimulator.advance", None),
    ("core.policies.order", "repro.core.policies:ShortestFirst.order", None),
    (
        "core.sunflow.schedule_demand",
        "repro.core.sunflow:SunflowScheduler.schedule_demand",
        _count("reservations", lambda args, plan: len(plan.reservations)),
    ),
    ("core.sunflow.schedule_many", "repro.core.sunflow:SunflowScheduler.schedule_many", None),
    ("core.sunflow.schedule_coflow", "repro.core.sunflow:SunflowScheduler.schedule_coflow", None),
    (
        "core.prt.rollback",
        "repro.core.prt:PortReservationTable.rollback",
        _count("rolled_back", lambda args, undone: undone),
    ),
    (
        "core.prt.replay",
        "repro.core.prt:PortReservationTable.replay",
        _count("replayed", lambda args, _: len(args[1])),
    ),
    ("core.prt.checkpoint", "repro.core.prt:PortReservationTable.checkpoint", None),
    (
        "core.plan_cache.fetch",
        "repro.core.plan_cache:PlanCache.fetch",
        _count("plan_cache_hits", lambda args, found: int(found[0] is not None)),
    ),
    ("core.plan_cache.store", "repro.core.plan_cache:PlanCache.store", None),
    ("sim.streaming.report_add", "repro.sim.streaming:StreamingReport.add", None),
    ("analysis.quantiles.add", "repro.analysis.quantiles:QuantileDigest.add", None),
    ("sim.results.report_add", "repro.sim.results:SimulationReport.add", None),
    ("schedulers.solstice.schedule", "repro.schedulers.solstice:SolsticeScheduler.schedule", None),
    # The name the intra-mode simulator looks up, not the defining module's.
    ("sim.assignment_exec.execute", "repro.sim.circuit_sim:execute_assignments", None),
    (
        "system.controller.handle_register",
        "repro.system.controller:SunflowController.handle_register",
        _count("replans", _replans),
    ),
    (
        "system.controller.handle_report",
        "repro.system.controller:SunflowController.handle_report",
        _count("replans", _replans),
    ),
    ("system.controller.handle_tick", "repro.system.controller:SunflowController.handle_tick", None),
    ("system.switch.handle_setup", "repro.system.switch:OpticalSwitch.handle_setup", None),
    ("system.switch.handle_teardown", "repro.system.switch:OpticalSwitch.handle_teardown", None),
    ("system.agent.register", "repro.system.agent:HostAgent.register", None),
    ("system.agent.handle_circuit_live", "repro.system.agent:HostAgent.handle_circuit_live", None),
    ("system.agent.handle_circuit_down", "repro.system.agent:HostAgent.handle_circuit_down", None),
]

#: Callables traced while a traced worker builds its inputs.
SETUP_TARGETS = [
    ("workloads.generate", "repro.workloads:FacebookLikeTraceGenerator.generate", None),
    ("workloads.generate", "repro.workloads:perturb_sizes", None),
    ("workloads.stream.write", "repro.workloads.stream:StreamTraceWriter.write", None),
]

#: Which of ``calls``/``self_s``/``total_s`` each span name reports.
SPAN_FIELDS = {
    "sim.engine": ("self_s",),
    "sim.circuit_sim.admit": ("calls", "self_s"),
    "sim.circuit_sim.plan": ("calls", "self_s", "total_s"),
    "sim.circuit_sim.advance": ("self_s",),
    "core.policies.order": ("calls", "self_s"),
    "core.sunflow.schedule_demand": ("calls", "self_s"),
    "core.sunflow.schedule_many": ("calls", "self_s"),
    "core.sunflow.schedule_coflow": ("calls", "self_s"),
    "core.prt.rollback": ("calls", "self_s"),
    "core.prt.replay": ("calls", "self_s"),
    "core.prt.checkpoint": ("calls",),
    "core.plan_cache.fetch": ("calls", "self_s"),
    "core.plan_cache.store": ("calls", "self_s"),
    "workloads.generate": ("self_s",),
    "workloads.stream.write": ("self_s",),
    "workloads.stream.next": ("calls", "self_s"),
    "sim.streaming.report_add": ("self_s",),
    "analysis.quantiles.add": ("self_s",),
    "sim.results.report_add": ("self_s",),
    "schedulers.solstice.schedule": ("calls", "self_s"),
    "sim.assignment_exec.execute": ("self_s",),
    "api.facade": ("self_s",),
    "system.runner": ("self_s",),
    "system.controller.handle_register": ("calls", "self_s"),
    "system.controller.handle_report": ("calls", "self_s"),
    "system.controller.handle_tick": ("calls", "self_s"),
    "system.switch.handle_setup": ("self_s",),
    "system.switch.handle_teardown": ("self_s",),
    "system.agent.register": ("self_s",),
    "system.agent.handle_circuit_live": ("self_s",),
    "system.agent.handle_circuit_down": ("self_s",),
}
KERNEL_COUNTERS = ("matchings_extracted", "bvn_permutations", "slices_emitted")
#: Per-layer metrics that are not a span field, with their units.
DERIVED_UNITS = {
    "sim.engine.events": "count",
    "sim.circuit_sim.plans_kept_ratio": "ratio",
    "sim.circuit_sim.transform_fallback_ratio": "ratio",
    "core.sunflow.reservations_per_call": "count",
    "core.prt.reservations_rolled_back": "count",
    "core.prt.reservations_replayed": "count",
    "core.plan_cache.hit_ratio": "ratio",
    **{f"kernels.{name}": "count" for name in KERNEL_COUNTERS},
    "system.controller.replans": "count",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **{
        f"{span}.{name}": "count" if name == "calls" else "s"
        for span, names in SPAN_FIELDS.items()
        for name in names
    },
    **DERIVED_UNITS,
}


def setup_seconds() -> float:
    """Host seconds since the first line of this file, at the reference
    speed measured by a probe right after them."""
    elapsed = time.perf_counter() - _T0
    return elapsed * REFERENCE_PROBE_S / speed_probe()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _kernel_counts() -> Optional[Dict[str, int]]:
    counters = getattr(perf_mod, "scheduler_counters", None)
    if counters is None:
        return None
    return {name: counters.count(name) for name in KERNEL_COUNTERS}


def layer_metrics(
    recorder: SpanRecorder,
    setup_totals: Dict[str, Dict[str, float]],
    result: PassResult,
    kernels: Optional[Dict[str, int]],
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass except the overhead."""
    totals = {**setup_totals, **recorder.totals()}
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: Dict[str, float] = {}
    for span, names in SPAN_FIELDS.items():
        entry = totals.get(span, zero)
        for name in names:
            out[f"{span}.{name}"] = entry[name]
    counts, perf = recorder.counts, result.perf
    out["sim.engine.events"] = result.events
    out["sim.circuit_sim.plans_kept_ratio"] = _ratio(
        perf.get("plans_kept", 0),
        perf.get("replans_avoided", 0) + perf.get("plans_computed", 0),
    )
    fallbacks = perf.get("transform_fallbacks", 0)
    out["sim.circuit_sim.transform_fallback_ratio"] = _ratio(
        fallbacks, perf.get("plans_transformed", 0) + fallbacks
    )
    out["core.sunflow.reservations_per_call"] = _ratio(
        counts.get("reservations", 0), out["core.sunflow.schedule_demand.calls"]
    )
    out["core.prt.reservations_rolled_back"] = counts.get("rolled_back", 0)
    out["core.prt.reservations_replayed"] = counts.get("replayed", 0)
    out["core.plan_cache.hit_ratio"] = _ratio(
        counts.get("plan_cache_hits", 0), out["core.plan_cache.fetch.calls"]
    )
    for name in KERNEL_COUNTERS:
        out[f"kernels.{name}"] = (kernels or {}).get(name, 0)
    out["system.controller.replans"] = counts.get("replans", 0)
    return out


def e2e_metrics(passes: List[PassResult], min_tail: int) -> Dict[str, float]:
    """The run's end-to-end metrics from its timed passes.

    Host times are at the reference speed (``paper_workloads.HostClock``).
    Throughput is the median over the passes.  Every pass makes the same
    decisions in the same order, so each decision's time is its median
    over the passes, and the percentiles are taken over those medians:
    a burst of interference in one pass moves neither.
    """
    decisions = columnwise_median([p.decisions for p in passes])
    first = passes[0]
    return {
        "coflows_per_s": statistics.median(p.completed / p.wall_s for p in passes),
        "decision_p50_ms": 1e3 * percentile(decisions, 50),
        "decision_p99_ms": 1e3 * tail_percentile(decisions, 99, min_tail),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cct_mean_s": _ratio(first.cct_sum, first.records),
        "cct_ratio_mean": _ratio(first.ratio_sum, first.records),
    }


def judge_digests(passes: List[PassResult], golden: Optional[str]) -> str:
    """Fail every operation of a pass whose digest disagrees; returns
    ``match``, ``mismatch`` or ``none`` for the golden comparison."""
    reference = golden if golden is not None else passes[0].digest
    for p in passes:
        if p.digest != reference:
            p.problems.append(f"output digest {p.digest[:12]} != {reference[:12]}")
            p.failed = p.attempted
    if golden is None:
        return "none"
    return "match" if all(p.digest == golden for p in passes) else "mismatch"


def provenance() -> Dict[str, object]:
    """Which backends the installed tree resolves to, and the host."""
    import os
    import platform

    import numpy

    import repro.core.prt as prt
    import repro.core.sunflow as sunflow

    def probe(module, name):
        fn = getattr(module, name, None)
        return fn() if fn is not None else "absent"

    return {
        "planner_backend": probe(sunflow, "planner_backend"),
        "native_planner_available": probe(sunflow, "native_planner_available"),
        "native_transactions_available": probe(prt, "native_transactions_available"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def traced_pass(workload: Workload, setup_totals: Dict[str, Dict[str, float]]):
    """One pass with every ``PASS_TARGETS`` callable wrapped; returns the
    recorder, the pass result and the pass's per-layer metrics."""
    recorder = SpanRecorder()
    for span, target, on_return in PASS_TARGETS:
        recorder.wrap(span, target, on_return)
    before = _kernel_counts()
    try:
        result = workload.run_pass(recorder)
    finally:
        recorder.unwrap_all()
    after = _kernel_counts()
    kernels = None if after is None else {k: after[k] - before[k] for k in after}
    return recorder, result, layer_metrics(recorder, setup_totals, result, kernels)


def measure_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    tiny: bool = False,
    spans_out: Optional[Path] = None,
) -> Dict[str, object]:
    """Set up, warm up and measure one workload; returns the result.

    Timed passes repeat until ``seconds`` have passed and at least
    ``MIN_PASSES`` ran.  With ``trace`` the passes come in untraced and
    traced pairs, and the per-layer metrics replace the end-to-end ones.
    """
    # One untraced and traced pair already gives the overhead ratio.
    min_passes = 1 if trace or tiny else MIN_PASSES
    workload: Workload = WORKLOADS[name](seed, tiny=tiny)
    setup_recorder = SpanRecorder()
    if trace:
        for span, target, on_return in SETUP_TARGETS:
            setup_recorder.wrap(span, target, on_return)
    try:
        with setup_recorder.span("setup"):
            workload.setup(workdir)
    finally:
        setup_recorder.unwrap_all()
    setup_s = setup_seconds()
    setup_totals = setup_recorder.totals()
    try:
        workload.run_pass(warmup=True)
        passes: List[PassResult] = []
        traced: List[PassResult] = []
        layers: List[Dict[str, float]] = []
        first_recorder: Optional[SpanRecorder] = None
        deadline = time.perf_counter() + seconds
        while True:
            # A traced run alternates the order within each untraced and
            # traced pair, so a slow drift of host speed cancels out of
            # the overhead ratio.
            if not trace:
                order = (False,)
            elif len(passes) % 2 == 0:
                order = (False, True)
            else:
                order = (True, False)
            for with_trace in order:
                # The previous pass's garbage is collected here, not
                # inside the next pass's timed region.
                gc.collect()
                if not with_trace:
                    passes.append(workload.run_pass())
                    continue
                recorder, result, layer = traced_pass(workload, setup_totals)
                traced.append(result)
                layers.append(layer)
                if first_recorder is None:
                    first_recorder = recorder
            if len(passes) >= min_passes and time.perf_counter() >= deadline:
                break
    finally:
        workload.close()

    golden = None
    if seed == GOLDEN_SEED and not tiny and GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text()).get(name)
    everything = passes + traced
    golden_state = judge_digests(everything, golden)
    out: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_s": setup_s,
        "passes": len(passes),
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "problems": [msg for p in everything for msg in p.problems][:10],
        "digest": passes[0].digest,
        "golden": golden_state,
        "decisions_per_pass": len(passes[0].decisions),
    }
    if not trace:
        out["pass_wall_s"] = [p.wall_s for p in passes]
        out["metrics"] = e2e_metrics(passes, 0 if tiny else MIN_TAIL)
        return out
    metrics = {
        key: statistics.median(layer[key] for layer in layers) for key in layers[0]
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.wall_s / u.wall_s for t, u in zip(traced, passes)) - 1
    )
    _, root_start, root_end = first_recorder.spans[-1]  # post-order: root last
    out["metrics"] = metrics
    out["absent"] = sorted(set(setup_recorder.absent + first_recorder.absent))
    out["traced_wall_s"] = root_end - root_start
    out["self_sum_s"] = sum(first_recorder.self_times())
    if spans_out is not None:
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        write_jsonl(spans_out, {"setup": setup_recorder, "pass": first_recorder})
        out["spans_file"] = str(spans_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="worker-", dir=args.workdir))
    try:
        if args.setup_only:
            workload = WORKLOADS[args.workload](args.seed)
            try:
                workload.setup(workdir)
                out = {"setup_s": setup_seconds()}
            finally:
                workload.close()
        else:
            out = measure_workload(
                args.workload,
                args.seed,
                args.seconds,
                bool(args.trace),
                workdir,
                spans_out=args.spans_out,
            )
            out["provenance"] = provenance()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
