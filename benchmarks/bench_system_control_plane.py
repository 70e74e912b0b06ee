"""§6 deployment — control-plane cost of the full system stack.

The paper argues Sunflow is deployable with known facilities (centralized
controller, REACToR signaling, Varys-style agents) but leaves the control
plane unevaluated.  This bench runs the component-level system simulation
(:mod:`repro.system`) against the idealized flow-level simulator:

* zero latencies — the two models agree (cross-validated: equal switching
  counts, CCTs within float rounding), establishing the component stack's
  correctness;
* realistic datacenter RTTs (0.1–1 ms) — the average CCT overhead of
  actually distributing the schedule, which stays small because Sunflow
  issues each circuit's command once (non-preemptive ⇒ few messages).

Each system row also reports the controller's own cost: the host time of
each decision (a register or report handler call that issued work) at
p50/p99, and the counters of the replan step it shares with the
flow-level simulator (plans computed, reservations made, kernel seconds).
"""

import time

import pytest

from repro.analysis.quantiles import ExactQuantiles
from repro.sim import simulate_inter_sunflow
from repro.system import LatencyConfig, SystemRunner
from repro.units import MS
from repro.workloads import FacebookLikeTraceGenerator, GeneratorConfig, perturb_sizes

from _utils import emit, header, run_once
from conftest import BANDWIDTH, DELTA, SEED


def _system_trace():
    """A smaller slice of the workload: the system runner exchanges several
    messages per reservation, so we keep the bench snappy."""
    config = GeneratorConfig(
        num_ports=60, num_coflows=80, max_width=15, mean_interarrival=2.0, seed=SEED
    )
    return perturb_sizes(FacebookLikeTraceGenerator(config).generate(), seed=SEED)


def _run_system(trace, latency):
    """One system replay; returns its report, the host seconds of every
    controller decision, and the controller's perf counters."""
    runner = SystemRunner(trace, BANDWIDTH, DELTA, latency=latency)
    controller = runner.controller
    decisions = ExactQuantiles()
    for name in ("handle_register", "handle_report"):

        def timed(now, message, handler=getattr(controller, name)):
            began = time.perf_counter()
            output = handler(now, message)
            if output.commands or output.teardowns or output.ticks:
                decisions.add(time.perf_counter() - began)
            return output

        setattr(controller, name, timed)
    return runner.run(), decisions, controller.perf


def test_system_control_plane(benchmark):
    trace = _system_trace()

    def compute():
        flow = simulate_inter_sunflow(trace, BANDWIDTH, DELTA)
        rows = [("flow-level model", flow.average_cct(), None, None)]
        for label, latency in (
            ("system, ideal", LatencyConfig()),
            ("system, 0.1ms RTTs", LatencyConfig(
                registration=0.05 * MS, command=0.05 * MS, report=0.05 * MS
            )),
            ("system, 1ms RTTs", LatencyConfig(
                registration=0.5 * MS, command=0.5 * MS, report=0.5 * MS
            )),
            ("system, +1ms signal", LatencyConfig(
                registration=0.5 * MS, command=0.5 * MS, report=0.5 * MS,
                signal=1.0 * MS,
            )),
        ):
            report, decisions, perf = _run_system(trace, latency)
            rows.append((label, report.average_cct(), decisions, perf))
        return rows

    rows = run_once(benchmark, compute)
    baseline = rows[0][1]

    header("§6: control-plane cost (component system vs flow-level model)")
    emit(
        f"{'configuration':>22} {'avg CCT':>9} {'vs model':>9} {'decisions':>9}"
        f" {'p50 ms':>7} {'p99 ms':>7} {'plans':>6} {'resv':>6} {'kernel s':>8}"
    )
    for label, avg_cct, decisions, perf in rows:
        line = f"{label:>22} {avg_cct:>8.2f}s {avg_cct / baseline:>8.3f}x"
        if decisions is not None:
            line += (
                f" {decisions.count:>9} {1e3 * decisions.percentile(50):>7.3f}"
                f" {1e3 * decisions.percentile(99):>7.3f}"
                f" {perf.count('plans_computed'):>6} {perf.count('reservations_made'):>6}"
                f" {perf.time('plan.kernel'):>8.3f}"
            )
        emit(line)
    emit()
    emit("non-preemptive scheduling keeps the command volume at one setup")
    emit("per flow, so millisecond-scale control RTTs cost <~1% average CCT.")

    ideal = rows[1][1]
    # The component stack reproduces the idealized model closely...
    assert ideal == pytest.approx(baseline, rel=0.05)
    # ...and realistic control latencies cost only a few percent.
    for _, avg_cct, _, _ in rows[2:]:
        assert avg_cct < baseline * 1.10
        assert avg_cct >= ideal - 1e-9
    for _, _, decisions, perf in rows[1:]:
        # Every decision is a replan of at least one active Coflow.
        assert decisions.count > 0
        assert perf.count("plans_computed") >= decisions.count
        assert perf.count("reservations_made") > 0
