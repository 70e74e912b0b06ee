"""The benchmark's four workloads, all on paper traffic.

Each workload is a closed loop with one client: the next call starts
when the previous one returns, and Coflow arrivals are simulated times
carried in the input.  The network is the paper's (B = 1 Gbps,
δ = 10 ms) and the traffic is the Facebook-like generator with the
evaluation's ±5% size perturbation.

Inputs are made from the ``--seed``: the generated trace structure is
fixed (generator seeds 2016 and 2017, the traces ``TraceSpec(kind=
"facebook", perturb=0.05, seed=2016/2017)`` loads) and the seed drives
the ±5% perturbation, the same way the paper repeats its evaluation on
perturbed copies of one trace.  At seed 2016 the inputs are exactly
``TraceSpec(seed=2016)`` and ``TraceSpec(seed=2017)``.

A workload looks up every program callable through its module or class
attribute at call time, so the span recorder's wrappers see the calls.
Host times are taken with a :class:`HostClock`, at the reference speed.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.api as api
import repro.sim.streaming as streaming
import repro.workloads as wl
from repro.core.coflow import CoflowTrace
from repro.sim.results import SimulationReport
from repro.system.controller import SunflowController
from repro.system.runner import LatencyConfig

from checks import CheckingStreamingReport, check_records, digest, record_key
from measure import REFERENCE_PROBE_S, speed_probe

BANDWIDTH_BPS = 1e9
DELTA_S = 0.010
PERTURB = 0.05
#: Generator seeds of the first and second trace of a workload.
BASE_SEEDS = (2016, 2017)
#: The seed the golden digests are recorded at.
GOLDEN_SEED = 2016
#: Least host time between two speed probes of a pass.
PROBE_INTERVAL_S = 0.05

clock = time.perf_counter


@dataclass(frozen=True)
class TraceShape:
    num_ports: int
    num_coflows: int
    max_width: Optional[int] = None
    mean_interarrival: float = 6.8


def paper_trace(shape: TraceShape, base_seed: int, perturb_seed: int) -> CoflowTrace:
    """A generated Facebook-like trace with ±5% sizes, sorted by arrival."""
    config = wl.GeneratorConfig(
        num_ports=shape.num_ports,
        num_coflows=shape.num_coflows,
        mean_interarrival=shape.mean_interarrival,
        max_width=shape.max_width,
        seed=base_seed,
    )
    trace = wl.FacebookLikeTraceGenerator(config).generate()
    return wl.perturb_sizes(trace, fraction=PERTURB, seed=perturb_seed).sorted_by_arrival()


def warmup_count(total: int) -> int:
    """How many leading inputs the untimed warm-up covers (10%)."""
    return max(1, math.ceil(total / 10))


@dataclass
class PassResult:
    """What one pass over a workload's inputs measured and checked."""

    #: Host seconds of the pass, at the reference speed.
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Host seconds of each scheduling decision at the reference speed,
    #: in order.
    decisions: List[float] = field(default_factory=list)
    #: Replay events (``on_event`` callbacks); 0 outside the replays.
    events: int = 0
    digest: str = ""
    cct_sum: float = 0.0
    ratio_sum: float = 0.0
    records: int = 0
    #: Summed ``perf`` counts of the runs in the pass.
    perf: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def add_output(self, group, expected_ids, output, lemma1=False) -> List[Tuple]:
        """Check one run's output: its report, or the exception it raised,
        which fails every expected Coflow.  Returns the digest keys."""
        if isinstance(output, Exception):
            self.add_error(len(expected_ids), output)
            return []
        records = output.records
        failed, problems = check_records(records, expected_ids, lemma1)
        self.attempted += len(expected_ids)
        self.failed += failed
        self.problems.extend(problems)
        for record in records:
            cct = record.completion_time - record.arrival_time
            self.cct_sum += cct
            self.ratio_sum += cct / record.circuit_lower
        self.records += len(records)
        return [record_key(group, record) for record in records]

    def add_error(self, expected: int, exc: BaseException) -> None:
        self.attempted += expected
        self.failed += expected
        self.problems.append(f"{type(exc).__name__}: {exc}")

    def add_perf(self, counts: Dict[str, int]) -> None:
        for name, value in counts.items():
            self.perf[name] = self.perf.get(name, 0) + value


def _span(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


class HostClock:
    """Host time of one pass at the reference speed.

    Between decisions, at most every ``PROBE_INTERVAL_S``, the clock runs
    :func:`measure.speed_probe`.  Each interval after a probe is scaled
    by ``REFERENCE_PROBE_S`` over that probe's time, so a pass that
    meets a slow period of the host reads about as one that did not;
    the probes' own time is left out.  In a traced pass each probe is a
    ``benchmark.speed_probe`` span, so no layer's self time holds it.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.scaled_s = 0.0
        self._probe()

    def _probe(self) -> None:
        with _span(self.recorder, "benchmark.speed_probe"):
            probe_s = speed_probe()
        self.factor = REFERENCE_PROBE_S / probe_s
        self.since = clock()
        self.next_probe = self.since + PROBE_INTERVAL_S

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured since the last probe, at the reference speed."""
        return seconds * self.factor

    def between_decisions(self) -> None:
        """Probe if one is due; call only outside a timed decision."""
        now = clock()
        if now >= self.next_probe:
            self.scaled_s += (now - self.since) * self.factor
            self._probe()

    def stop(self) -> float:
        """Scaled host seconds since the clock was made."""
        return self.scaled_s + (clock() - self.since) * self.factor


class _EventClock:
    """``on_event`` callback: one decision is the gap between callbacks."""

    def __init__(self, result: PassResult, host: HostClock, recorder) -> None:
        self.result = result
        self.host = host
        self.recorder = recorder
        self.last = clock()

    def __call__(self, _event_time: float) -> None:
        self.result.decisions.append(self.host.scaled(clock() - self.last))
        self.result.events += 1
        if self.recorder is not None:
            self.recorder.mark_decision()
        self.host.between_decisions()
        self.last = clock()


class Workload:
    """One set of inputs, built by :meth:`setup`, replayed by passes."""

    name = ""
    #: Span name of a traced pass's root: the layer that owns the work
    #: no wrapped callable does.
    root = ""
    #: Trace size of the benchmark, and of the self-tests' tiny runs.
    full_shape = tiny_shape = TraceShape(0, 0)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    @property
    def shape(self) -> TraceShape:
        return self.tiny_shape if self.tiny else self.full_shape

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def run_pass(self, recorder=None, warmup: bool = False) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything :meth:`setup` installed."""


class FbReplay(Workload):
    """§5.4 replay of two perturbed paper traces, wide Coflows uncapped."""

    name = "fb-replay"
    root = "sim.engine"
    full_shape = TraceShape(150, 526)
    tiny_shape = TraceShape(20, 30, max_width=6)

    def setup(self, workdir: Path) -> None:
        self.traces = [
            paper_trace(self.shape, base, self.seed + i) for i, base in enumerate(BASE_SEEDS)
        ]

    def run_pass(self, recorder=None, warmup: bool = False) -> PassResult:
        result = PassResult()
        inputs = [
            trace.coflows[: warmup_count(len(trace))] if warmup else trace.coflows
            for trace in self.traces
        ]
        outputs = []
        with _span(recorder, self.root):
            host = HostClock(recorder)
            for coflows in inputs:
                report = SimulationReport("sunflow", BANDWIDTH_BPS, DELTA_S)
                try:
                    run = streaming.simulate_inter_sunflow_stream(
                        coflows,
                        num_ports=self.traces[0].num_ports,
                        bandwidth_bps=BANDWIDTH_BPS,
                        delta=DELTA_S,
                        report=report,
                        on_event=_EventClock(result, host, recorder),
                    )
                except Exception as exc:  # one failed run must not end the pass
                    outputs.append(exc)
                else:
                    result.add_perf(run.perf.counts)
                    outputs.append(report)
            result.wall_s = host.stop()
        keys = []
        for index, (coflows, output) in enumerate(zip(inputs, outputs)):
            keys += result.add_output(index, [c.coflow_id for c in coflows], output)
        result.digest = digest(keys)
        return result


class StreamNarrow(Workload):
    """Bounded-memory replay of many narrow Coflows from an SFTR file."""

    name = "stream-narrow"
    root = "sim.engine"
    full_shape = TraceShape(40, 4000, max_width=12)
    tiny_shape = TraceShape(12, 60, max_width=4)

    def setup(self, workdir: Path) -> None:
        trace = paper_trace(self.shape, BASE_SEEDS[0], self.seed)
        self.path = workdir / "stream-narrow.sftr"
        wl.write_stream_trace(self.path, trace.coflows, trace.num_ports)
        ids = [coflow.coflow_id for coflow in trace.coflows]
        self.warm_count = warmup_count(len(ids))
        self.expected = {
            warm: {
                "count": len(part),
                "id_sum": sum(part),
                "id_square_sum": sum(cid * cid for cid in part),
            }
            for warm, part in ((False, ids), (True, ids[: self.warm_count]))
        }

    def run_pass(self, recorder=None, warmup: bool = False) -> PassResult:
        result = PassResult()
        report = CheckingStreamingReport("sunflow", BANDWIDTH_BPS, DELTA_S)
        error = None
        with _span(recorder, self.root):
            host = HostClock(recorder)
            try:
                with wl.open_stream_trace(self.path) as arrivals:
                    source = arrivals
                    if warmup:
                        source = itertools.islice(arrivals, self.warm_count)
                    if recorder is not None:
                        source = recorder.iterate("workloads.stream.next", source)
                    run = streaming.simulate_inter_sunflow_stream(
                        source,
                        num_ports=arrivals.num_ports,
                        bandwidth_bps=BANDWIDTH_BPS,
                        delta=DELTA_S,
                        report=report,
                        on_event=_EventClock(result, host, recorder),
                    )
            except Exception as exc:  # the pass's only run failed
                error = exc
            else:
                result.add_perf(run.perf.counts)
            result.wall_s = host.stop()
        expected = self.expected[warmup]
        if error is not None:
            result.add_error(expected["count"], error)
            return result
        failed, problems = report.finish(expected)
        result.attempted = expected["count"]
        result.failed = failed
        result.problems = problems
        result.cct_sum = report.cct_sum
        result.ratio_sum = report.ratio_sum
        result.records = report.count
        result.digest = report.outcome_digest()
        return result


class IntraBaselines(Workload):
    """§5.3 intra mode: each Coflow alone, under Sunflow and Solstice."""

    name = "intra-baselines"
    root = "api.facade"
    schedulers = ("sunflow", "solstice")
    #: Coflow 402 of the 2016 trace (4,482 flows) is left out.  Solstice
    #: treats stuffed entries below 1e-9 of the peak (3.5 ns here) as
    #: drained, more than the executor's 1 ns tolerance, so on about one
    #: perturbation in twenty (seed 10 of 1-20, and the unperturbed
    #: trace) float residue stays uncovered and the call raises.  Every
    #: other Coflow completed under both schedulers on seeds 1-20; a
    #: benchmark that fails on some seeds cannot compare commits.
    excluded = frozenset({402})
    full_shape = TraceShape(150, 526)
    tiny_shape = TraceShape(16, 12, max_width=6)

    def setup(self, workdir: Path) -> None:
        trace = paper_trace(self.shape, BASE_SEEDS[0], self.seed)
        coflows = [c for c in trace.coflows if c.coflow_id not in self.excluded]
        self.ops = [
            (
                scheduler,
                coflow.coflow_id,
                api.SimulationSpec(
                    trace=CoflowTrace(trace.num_ports, [coflow]),
                    mode="intra",
                    scheduler=scheduler,
                    network=api.NetworkSpec(bandwidth_bps=BANDWIDTH_BPS, delta=DELTA_S),
                ),
            )
            for coflow in coflows
            for scheduler in self.schedulers
        ]
        self.warm_ops = self.ops[: len(self.schedulers) * warmup_count(len(coflows))]

    def run_pass(self, recorder=None, warmup: bool = False) -> PassResult:
        result = PassResult()
        ops = self.warm_ops if warmup else self.ops
        outputs = []
        decisions = result.decisions
        with _span(recorder, self.root):
            host = HostClock(recorder)
            for _, _, spec in ops:
                began = clock()
                try:
                    output = api.simulate(spec)
                except Exception as exc:  # fails this operation alone
                    output = exc
                decisions.append(host.scaled(clock() - began))
                if recorder is not None:
                    recorder.mark_decision()
                outputs.append(output)
                host.between_decisions()
            result.wall_s = host.stop()
        keys = []
        for (scheduler, cid, _), output in zip(ops, outputs):
            keys += result.add_output(scheduler, [cid], output, lemma1=scheduler == "sunflow")
        result.digest = digest(keys)
        return result


class ControlPlane(Workload):
    """§6 system stack: controller, switch and agents over two traces."""

    name = "control-plane"
    root = "system.runner"
    latency = LatencyConfig(registration=5e-5, command=5e-5, report=5e-5)
    #: The controller handlers a decision is made in.
    handlers = ("handle_register", "handle_report")
    full_shape = TraceShape(60, 300, max_width=15, mean_interarrival=2.0)
    tiny_shape = TraceShape(10, 20, max_width=4, mean_interarrival=2.0)

    def setup(self, workdir: Path) -> None:
        traces = [
            paper_trace(self.shape, base, self.seed + i) for i, base in enumerate(BASE_SEEDS)
        ]
        warm_traces = [
            CoflowTrace(trace.num_ports, trace.coflows[: warmup_count(len(trace))])
            for trace in traces
        ]
        self.runs = {
            warm: [(trace, self._spec(trace)) for trace in group]
            for warm, group in ((False, traces), (True, warm_traces))
        }
        self._decisions: List[float] = []
        self._host: Optional[HostClock] = None
        self._recorder = None
        self._originals = {name: vars(SunflowController)[name] for name in self.handlers}
        for name, original in self._originals.items():
            setattr(SunflowController, name, self._decision_timer(original))

    def _spec(self, trace: CoflowTrace) -> api.SimulationSpec:
        return api.SimulationSpec(
            trace=trace,
            mode="inter",
            scheduler="system",
            network=api.NetworkSpec(bandwidth_bps=BANDWIDTH_BPS, delta=DELTA_S),
            latency=self.latency,
        )

    def _decision_timer(self, original):
        """Time a handler call; it is a decision when it returned work."""
        workload = self

        @functools.wraps(original)
        def timed(controller, now, message):
            began = clock()
            output = original(controller, now, message)
            ended = clock()
            if output.commands or output.teardowns or output.ticks:
                workload._decisions.append(workload._host.scaled(ended - began))
                if workload._recorder is not None:
                    workload._recorder.mark_decision()
            workload._host.between_decisions()
            return output

        return timed

    def close(self) -> None:
        for name, original in self._originals.items():
            setattr(SunflowController, name, original)

    def run_pass(self, recorder=None, warmup: bool = False) -> PassResult:
        result = PassResult()
        runs = self.runs[warmup]
        self._decisions = result.decisions
        self._recorder = recorder
        outputs = []
        try:
            with _span(recorder, self.root):
                self._host = HostClock(recorder)
                for _, spec in runs:
                    try:
                        outputs.append(api.simulate(spec))
                    except Exception as exc:  # one failed run must not end the pass
                        outputs.append(exc)
                result.wall_s = self._host.stop()
        finally:
            self._recorder = self._host = None
        keys = []
        for index, ((trace, _), output) in enumerate(zip(runs, outputs)):
            keys += result.add_output(index, [c.coflow_id for c in trace.coflows], output)
        result.digest = digest(keys)
        return result


WORKLOADS = {
    cls.name: cls for cls in (FbReplay, StreamNarrow, IntraBaselines, ControlPlane)
}
