"""Bounded-memory trace replay: million-coflow runs in O(active) space.

The in-memory pipeline materializes the trace (a Coflow list), the event
sequence, and one :class:`~repro.sim.results.CoflowRecord` per Coflow —
all O(trace).  This module replaces each with a streaming counterpart
while keeping the simulation itself *bit-identical*:

* arrivals come from any iterator (a
  :class:`~repro.workloads.stream.StreamTraceReader`, a generator), fed
  through :func:`repro.sim.engine.run_replay_stream`'s one-arrival
  lookahead;
* completion records fold into a :class:`StreamingReport` — running
  aggregates plus a :class:`~repro.analysis.quantiles.QuantileDigest`
  for CCT percentiles — instead of an unbounded record list;
* the simulator keeps no history: it plans every event on a fresh
  PRT and drops a Coflow's state when it completes (see
  :class:`~repro.sim.circuit_sim.InterCoflowSimulator`).

Byte-identity: the event loop performs the same float operations as the
in-memory path, so driving the *same* simulator with a full
:class:`~repro.sim.results.SimulationReport` as the ``report`` sink
reproduces the in-memory run exactly — the differential suite in
``tests/sim/test_streaming.py`` pins this.  Only the *aggregation* is
approximate (digest quantiles, within the documented rank error); sums,
counts, extrema, and every individual completion time are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.analysis.quantiles import QuantileDigest
from repro.core.coflow import CoflowTrace
from repro.core.policies import Policy
from repro.core.starvation import StarvationGuard
from repro.core.sunflow import ReservationOrder
from repro.perf import PerfCounters, peak_rss_bytes
from repro.sim.circuit_sim import InterCoflowSimulator
from repro.sim.engine import run_replay_stream
from repro.sim.results import CoflowRecord
from repro.units import DEFAULT_BANDWIDTH, DEFAULT_DELTA


class StreamingReport:
    """Completion-record sink with O(1) memory per Coflow.

    Drop-in for :class:`~repro.sim.results.SimulationReport` where the
    simulator is concerned (it only calls ``add``); the aggregates the
    paper's figures need — mean/min/max CCT, CCT percentiles, switching
    totals, per-category counts — are folded in as records arrive and
    the records themselves are discarded.  Percentiles come from a
    :class:`~repro.analysis.quantiles.QuantileDigest` (documented rank
    error ≲ 1/compression); everything else is exact.
    """

    def __init__(
        self,
        scheduler: str,
        bandwidth_bps: float,
        delta: float,
        compression: int = 200,
    ) -> None:
        self.scheduler = scheduler
        self.bandwidth_bps = bandwidth_bps
        self.delta = delta
        self.count = 0
        self.cct_sum = 0.0
        self.switching_total = 0
        self.flows_total = 0
        self.bytes_total = 0.0
        self.last_completion = 0.0
        self.category_counts: Dict[str, int] = {}
        self.digest = QuantileDigest(compression=compression)

    def __len__(self) -> int:
        return self.count

    def add(self, record: CoflowRecord) -> None:
        """Fold one completion record into the running aggregates."""
        cct = record.cct
        self.count += 1
        self.cct_sum += cct
        self.switching_total += record.switching_count
        self.flows_total += record.num_flows
        self.bytes_total += record.total_bytes
        if record.completion_time > self.last_completion:
            self.last_completion = record.completion_time
        category = record.category.value
        self.category_counts[category] = self.category_counts.get(category, 0) + 1
        self.digest.add(cct)

    # ------------------------------------------------------------------
    # Aggregates (mirroring SimulationReport's names where they apply)
    # ------------------------------------------------------------------
    def average_cct(self) -> float:
        return self.cct_sum / self.count if self.count else 0.0

    @property
    def min_cct(self) -> float:
        return self.digest.min

    @property
    def max_cct(self) -> float:
        return self.digest.max

    def cct_percentile(self, p: float) -> float:
        """Estimated ``p``-th CCT percentile (digest rank error applies)."""
        return self.digest.percentile(p)

    def summary(self) -> Dict[str, float]:
        """The summary block the streaming bench and CLI print."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_cct_s": self.average_cct(),
            "median_cct_s": self.cct_percentile(50),
            "p95_cct_s": self.cct_percentile(95),
            "p99_cct_s": self.cct_percentile(99),
            "min_cct_s": self.min_cct,
            "max_cct_s": self.max_cct,
            "last_completion_s": self.last_completion,
            "switching_total": self.switching_total,
        }


@dataclass
class StreamingResult:
    """What :func:`simulate_inter_sunflow_stream` returns.

    ``report`` is whatever sink the run used — a :class:`StreamingReport`
    by default, or the caller-provided one (the differential suite passes
    a full :class:`~repro.sim.results.SimulationReport` to compare
    records against the in-memory engine).
    """

    report: object
    events: int
    perf: PerfCounters


def simulate_inter_sunflow_stream(
    arrivals: Iterable,
    num_ports: Optional[int] = None,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    policy: Optional[Policy] = None,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
    guard: Optional[StarvationGuard] = None,
    priority_classes: Optional[Dict[int, int]] = None,
    rng: Optional[random.Random] = None,
    perf: Optional[PerfCounters] = None,
    report=None,
    on_event: Optional[Callable[[float], None]] = None,
    digest_compression: int = 200,
) -> StreamingResult:
    """Replay an arrival stream under Sunflow inter-Coflow scheduling.

    The streaming twin of
    :func:`repro.sim.circuit_sim.simulate_inter_sunflow`: identical
    simulation (same simulator class, same event loop arithmetic), but
    arrivals come from an iterator and completions fold into a bounded
    :class:`StreamingReport` — peak memory tracks the number of
    *concurrently active* Coflows, not the trace length.

    Args:
        arrivals: Coflows sorted by arrival time — an
            :class:`~repro.workloads.stream.ArrivalStream`, any iterable,
            or a generator.  When it is an ``ArrivalStream`` (or exposes
            ``num_ports``), ``num_ports`` may be omitted.
        num_ports: fabric width; required when ``arrivals`` does not
            carry it.
        report: optional completion sink (anything with ``add(record)``).
            Defaults to a fresh :class:`StreamingReport`.
        on_event: optional callback receiving each event time (RSS /
            throughput sampling in the benchmark).
        digest_compression: quantile-sketch compression for the default
            report.

    Returns:
        :class:`StreamingResult` with the report, the number of events
        processed, and the run's perf counters (including
        ``sketch_merges``, the ``plan.order``/``plan.pack``/``plan.kernel``
        sub-timers, and a ``peak_rss_bytes`` high-water mark).  The simulator's
        per-Coflow demand state rides the same
        :class:`~repro.core.demand.PackedDemand` columns as the in-memory
        engine, so the streaming path shares the packed planner fast path
        bit-for-bit.
    """
    if num_ports is None:
        num_ports = getattr(arrivals, "num_ports", None)
        if num_ports is None:
            raise ValueError(
                "num_ports is required when the arrival source does not "
                "carry it (pass an ArrivalStream or set num_ports=...)"
            )
    simulator = InterCoflowSimulator(
        CoflowTrace(num_ports=num_ports),
        bandwidth_bps=bandwidth_bps,
        delta=delta,
        policy=policy,
        order=order,
        guard=guard,
        priority_classes=priority_classes,
        rng=rng,
        perf=perf,
    )
    if report is None:
        report = StreamingReport(
            "sunflow", bandwidth_bps, delta, compression=digest_compression
        )
    simulator.begin_run(report=report)
    events = run_replay_stream(simulator, arrivals, on_event=on_event)
    simulator.finish_run()
    run_perf = simulator.perf
    if isinstance(report, StreamingReport):
        run_perf.inc("sketch_merges", report.digest.compressions)
    peak = peak_rss_bytes()
    if peak is not None:
        run_perf.observe_max("peak_rss_bytes", peak)
    return StreamingResult(report=report, events=events, perf=run_perf)


__all__ = [
    "StreamingReport",
    "StreamingResult",
    "simulate_inter_sunflow_stream",
]
