"""K-core trace replay: Sunflow inter/intra simulation over parallel cores.

The K-core simulators compose the single-core machinery rather than fork
it: :class:`MultiCoreInterSimulator` is a
:class:`~repro.sim.engine.ReplayHost` that owns one
:class:`~repro.sim.circuit_sim.InterCoflowSimulator` *per core* and
drives them all through the one shared :func:`~repro.sim.engine.run_replay`
loop.  A placement policy (``repro.core.multicore.MULTICORE_POLICIES``)
decides, at admission, which core(s) each arriving Coflow lands on:

* ``"ok-approx"`` — the whole Coflow goes to the least-loaded core
  (O(K)-approximation discipline); each core then runs ordinary
  single-core Sunflow inter-Coflow scheduling over its own population.
* ``"balanced-split"`` — the Coflow's demand is split across all cores
  proportionally to core bandwidth (performance-guarantee discipline);
  the Coflow completes when its last share does.

Because the per-core sub-simulators execute the *identical* code path as
a standalone single-switch replay — same planner, same replan from
scratch at every event, same float expressions — a one-core fabric
reproduces today's single-switch results **bitwise** (records and event
times).  The differential suites pin this.

All per-core sub-simulators share one
:class:`~repro.perf.PerfCounters` sink.

Starvation guards are single-switch-only (the guard horizon is defined
against one PRT); guarded multi-core runs are rejected by the facade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.multicore import (
    CoreLoadTracker,
    MultiCoreSunflowScheduler,
    SwitchCore,
    resolve_multicore_policy,
    split_demand,
)
from repro.core.policies import Policy
from repro.core.sunflow import ReservationOrder
from repro.perf import PerfCounters
from repro.sim.circuit_sim import InterCoflowSimulator
from repro.sim.engine import run_replay
from repro.sim.results import SimulationReport, make_record


@dataclass
class _PendingCoflow:
    """Merge state for one admitted Coflow while its shares are in flight."""

    coflow: Coflow
    cores_left: Set[int]
    assigned_core: Optional[int]  # ok-approx only, for load release
    completion_time: float = 0.0
    switching_count: int = 0


class MultiCoreInterSimulator:
    """Replay a trace over ``K`` switch cores (paper-§5.4-style, K-core).

    Args:
        trace: the Coflows with their arrival times.
        cores: the fabric (``repro.core.multicore.SwitchCore`` sequence,
            ordered by index).
        multicore_policy: coflow-to-core placement policy name; defaults
            to ``"ok-approx"``.  ``"first-fit"`` is intra-only and
            rejected here.
        policy: inter-Coflow priority policy applied *within* each core
            (shortest-Coflow-first by default, shared across cores).
        order / priority_classes / rng / perf: as in
            :class:`~repro.sim.circuit_sim.InterCoflowSimulator`; all
            per-core sub-simulators share ``rng`` and ``perf``.
    """

    def __init__(
        self,
        trace: CoflowTrace,
        cores: Sequence[SwitchCore],
        multicore_policy: Optional[str] = None,
        policy: Optional[Policy] = None,
        order: ReservationOrder = ReservationOrder.ORDERED_PORT,
        priority_classes: Optional[Dict[int, int]] = None,
        rng: Optional[random.Random] = None,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        if not cores:
            raise ValueError("at least one switch core is required")
        self.trace = trace.sorted_by_arrival()
        self.cores = tuple(cores)
        self.multicore_policy = resolve_multicore_policy(multicore_policy, "inter")
        self.bandwidth_bps = self.cores[0].bandwidth_bps
        self.delta = self.cores[0].delta
        self.perf = perf if perf is not None else PerfCounters()
        empty = CoflowTrace(trace.num_ports, [])
        self._subs: List[InterCoflowSimulator] = [
            InterCoflowSimulator(
                empty,
                bandwidth_bps=core.bandwidth_bps,
                delta=core.delta,
                policy=policy,
                order=order,
                priority_classes=priority_classes,
                rng=rng,
                perf=self.perf,
            )
            for core in self.cores
        ]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Replay the whole trace; one merged record per Coflow."""
        self._report = SimulationReport("sunflow", self.bandwidth_bps, self.delta)
        for sub in self._subs:
            sub.begin_run()
        self._drained = [0] * self.num_cores
        self._pending: Dict[int, _PendingCoflow] = {}
        self._loads = CoreLoadTracker(self.cores)
        self.event_times = run_replay(self, list(self.trace))
        return self._report

    # ------------------------------------------------------------------
    # ReplayHost hooks (driven by repro.sim.engine.run_replay)
    # ------------------------------------------------------------------
    def has_active(self) -> bool:
        return any(sub.has_active() for sub in self._subs)

    def admit(self, coflow: Coflow, now: float) -> None:
        shares = self._place(coflow)
        assigned = shares[0][0] if self.multicore_policy.name == "ok-approx" else None
        self._pending[coflow.coflow_id] = _PendingCoflow(
            coflow=coflow,
            cores_left={core for core, _ in shares},
            assigned_core=assigned,
        )
        for core, share in shares:
            self._subs[core].admit(share, now)

    def plan(self, now: float, next_arrival: float) -> float:
        event_time = next_arrival
        for sub in self._subs:
            # A core with no active Coflows has nothing to replan — skip
            # it entirely.
            if sub.has_active():
                event_time = min(event_time, sub.plan(now, next_arrival))
        return event_time

    def advance(self, now: float, event_time: float) -> None:
        for sub in self._subs:
            if sub.has_active():
                sub.advance(now, event_time)
        self._merge_completions()

    # ------------------------------------------------------------------
    def _place(self, coflow: Coflow) -> List[Tuple[int, Coflow]]:
        """``(core, share)`` pairs for one arriving Coflow.

        A share is the *original* Coflow object whenever it is whole —
        always for ok-approx, and for balanced-split at ``K = 1`` — so
        the one-core path hands the sub-simulator byte-identical inputs.
        """
        if self.multicore_policy.name == "ok-approx":
            demand = coflow.demand()
            core = self._loads.assign(demand)
            self._loads.add(core, demand)
            return [(core, coflow)]
        if self.num_cores == 1:
            return [(0, coflow)]
        shares: List[Tuple[int, Coflow]] = []
        for core, share in enumerate(split_demand(coflow.demand(), self.cores)):
            positive = {circuit: size for circuit, size in share.items() if size > 0}
            if positive:
                shares.append(
                    (
                        core,
                        Coflow.from_demand(
                            coflow.coflow_id,
                            positive,
                            arrival_time=coflow.arrival_time,
                        ),
                    )
                )
        return shares

    def _merge_completions(self) -> None:
        """Drain newly finished per-core records; emit merged records.

        A Coflow's merged completion is the max over its shares, its
        switching count the sum.  Merged records are rebuilt from the
        original (unsplit) Coflow at core 0's rate so bounds stay
        comparable across policies.
        """
        for core, sub in enumerate(self._subs):
            records = sub._report.records
            start = self._drained[core]
            if start == len(records):
                continue
            self._drained[core] = len(records)
            for record in records[start:]:
                pending = self._pending[record.coflow_id]
                pending.cores_left.discard(core)
                pending.switching_count += record.switching_count
                if record.completion_time > pending.completion_time:
                    pending.completion_time = record.completion_time
                if pending.cores_left:
                    continue
                del self._pending[record.coflow_id]
                if pending.assigned_core is not None:
                    self._loads.remove(
                        pending.assigned_core, pending.coflow.demand()
                    )
                self._report.add(
                    make_record(
                        pending.coflow,
                        completion_time=pending.completion_time,
                        bandwidth_bps=self.bandwidth_bps,
                        delta=self.delta,
                        switching_count=pending.switching_count,
                    )
                )


# ----------------------------------------------------------------------
# One-call entry points (mirroring circuit_sim's simulate_* surface)
# ----------------------------------------------------------------------
def simulate_inter_multicore(
    trace: CoflowTrace,
    cores: Sequence[SwitchCore],
    multicore_policy: Optional[str] = None,
    policy: Optional[Policy] = None,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
    priority_classes: Optional[Dict[int, int]] = None,
    rng: Optional[random.Random] = None,
) -> SimulationReport:
    """One-call K-core trace replay under Sunflow inter-Coflow scheduling."""
    simulator = MultiCoreInterSimulator(
        trace,
        cores,
        multicore_policy=multicore_policy,
        policy=policy,
        order=order,
        priority_classes=priority_classes,
        rng=rng,
    )
    return simulator.run()


def simulate_intra_multicore(
    trace: CoflowTrace,
    cores: Sequence[SwitchCore],
    multicore_policy: Optional[str] = None,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
    rng: Optional[random.Random] = None,
) -> SimulationReport:
    """Back-to-back K-core Sunflow service (paper-§5.3-style, K cores).

    Each Coflow is planned in isolation on fresh per-core tables; its CCT
    is the schedule makespan.  The default placement is ``"first-fit"``
    (flow-level spreading), which degenerates to plain single-core
    Sunflow at ``K = 1`` bitwise.
    """
    if not cores:
        raise ValueError("at least one switch core is required")
    mc_policy = resolve_multicore_policy(multicore_policy, "intra")
    scheduler = MultiCoreSunflowScheduler(cores, order=order, rng=rng)
    base_bandwidth = cores[0].bandwidth_bps
    base_delta = cores[0].delta
    report = SimulationReport("sunflow", base_bandwidth, base_delta)
    for coflow in trace:
        schedule = scheduler.schedule_coflow(
            coflow, policy=mc_policy.name, start_time=0.0
        )
        report.add(
            make_record(
                coflow,
                completion_time=coflow.arrival_time + schedule.makespan,
                bandwidth_bps=base_bandwidth,
                delta=base_delta,
                switching_count=schedule.num_setups,
            )
        )
    return report


__all__ = [
    "MultiCoreInterSimulator",
    "simulate_inter_multicore",
    "simulate_intra_multicore",
]
