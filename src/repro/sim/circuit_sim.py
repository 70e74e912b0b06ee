"""Circuit-switched network simulation (paper §5.1).

Flow-level, trace-driven simulation of the optical circuit switched
network under the not-all-stop model, in the paper's two evaluation modes:

* **intra-Coflow** (§5.3) — Coflows are served back-to-back ("a Coflow
  arrives only after the previous one is finished"), so each Coflow is
  scheduled in isolation and its CCT is simply the schedule makespan.
  Works for Sunflow and for the assignment-based baselines.
* **inter-Coflow** (§5.4) — detailed trace replay with arrival times.
  Like Varys, the simulator reschedules *only* at Coflow arrivals and
  completions: at each event the remaining demand of every active Coflow
  is re-planned through ``InterCoflow`` (priority order given by a
  :class:`~repro.core.policies.Policy`), the plan is executed until the
  next event, and transfer progress is banked.  Circuits actively
  transmitting at a reschedule keep their configuration (no second ``δ``)
  when the new plan reuses them immediately; circuits caught mid-setup
  carry only their *remaining* setup time into the new plan.

An optional :class:`~repro.core.starvation.StarvationGuard` carves the
``(T+τ)`` shared slices of §4.2 into the plan; during a ``τ`` slice every
active Coflow with demand on an enabled circuit shares its bandwidth
equally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.backend import native_module
from repro.core.coflow import Coflow, CoflowTrace
from repro.core.demand import PackedDemand
from repro.core.policies import CoflowView, Policy, ShortestFirst
from repro.core.prt import (
    PortConflictError,
    PortReservationTable,
    Reservation,
    TIME_EPS,
)
from repro.core.starvation import StarvationGuard
from repro.core.sunflow import CoflowSchedule, ReservationOrder, SunflowScheduler
from repro.perf import PerfCounters
from repro.schedulers.base import AssignmentScheduler
from repro.sim.assignment_exec import SwitchModel, execute_assignments
from repro.sim.engine import IndexedEventQueue, run_replay
from repro.sim.results import SimulationReport, make_record
from repro.units import DEFAULT_BANDWIDTH, DEFAULT_DELTA

Circuit = Tuple[int, int]


# ----------------------------------------------------------------------
# Intra-Coflow mode (§5.3): one Coflow in the network at a time
# ----------------------------------------------------------------------
def simulate_intra_sunflow(
    trace: CoflowTrace,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
    rng: Optional[random.Random] = None,
) -> SimulationReport:
    """Back-to-back Sunflow service: CCT per Coflow is its schedule makespan."""
    scheduler = SunflowScheduler(delta=delta, order=order, rng=rng)
    report = SimulationReport("sunflow", bandwidth_bps, delta)
    for coflow in trace:
        schedule = scheduler.schedule_coflow(coflow, bandwidth_bps, start_time=0.0)
        report.add(
            make_record(
                coflow,
                completion_time=coflow.arrival_time + schedule.makespan,
                bandwidth_bps=bandwidth_bps,
                delta=delta,
                switching_count=schedule.num_setups,
            )
        )
    return report


def simulate_intra_assignment(
    trace: CoflowTrace,
    scheduler: AssignmentScheduler,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    model: SwitchModel = SwitchModel.NOT_ALL_STOP,
) -> SimulationReport:
    """Back-to-back service by an assignment-based baseline (Solstice/TMS/Edmond)."""
    report = SimulationReport(scheduler.name, bandwidth_bps, delta)
    for coflow in trace:
        demand = coflow.processing_times(bandwidth_bps)
        schedule = scheduler.schedule(demand, trace.num_ports)
        execution = execute_assignments(schedule, demand, delta, model=model)
        if not execution.finished:
            raise RuntimeError(
                f"{scheduler.name} schedule does not cover coflow {coflow.coflow_id}"
            )
        report.add(
            make_record(
                coflow,
                completion_time=execution.completion_time + coflow.arrival_time,
                bandwidth_bps=bandwidth_bps,
                delta=delta,
                switching_count=execution.switching_count,
            )
        )
    return report


# ----------------------------------------------------------------------
# Inter-Coflow mode (§5.4): trace replay with arrivals
# ----------------------------------------------------------------------
@dataclass
class _ActiveCoflow:
    """Simulator-side mutable state of one admitted, unfinished Coflow."""

    coflow: Coflow
    remaining: Dict[Circuit, float]
    #: Circuits configured, as ``circuit -> (remaining setup seconds,
    #: anchor end)``: 0 remaining setup means the circuit is live, and the
    #: anchor is the absolute end its continuation was planned to reach
    #: (lets a replan reproduce the same reservation bit-for-bit).
    established: Dict[Circuit, Tuple[float, float]] = field(default_factory=dict)
    #: Circuits whose ``remaining`` was re-banked since this Coflow's plan
    #: was last truly computed.  A banked value is the planner's per-entry
    #: subtraction chain re-associated, so any *future* reservation for
    #: such a circuit could drift by an ulp on recompute — the continuation
    #: transform refuses to keep those layers (see
    #: ``InterCoflowSimulator._transform_continuation``).
    banked_circuits: Set[Circuit] = field(default_factory=set)
    switching_count: int = 0
    #: Memoized ``CoflowView.bottleneck`` over the current ``remaining``.
    #: Every write to ``remaining`` resets it to None (see ``_advance`` and
    #: ``_apply_guard_service``); ``_ordered_ids`` recomputes on demand.
    bottleneck_cache: Optional[float] = None

    @property
    def done(self) -> bool:
        return all(p <= TIME_EPS for p in self.remaining.values())


@dataclass(slots=True)
class _PlanLayer:
    """One Coflow's cached plan inside the layered PRT (insertion order =
    priority order at the time the layer was planned)."""

    coflow_id: int
    plan: CoflowSchedule
    #: PRT checkpoint taken just before this layer's reservations.
    token: int


def _same_future_occupancy(
    old: CoflowSchedule, new: CoflowSchedule, now: float
) -> bool:
    """True when two plans reserve bit-identical port time on ``[now, ∞)``.

    Exact float comparison on purpose: a reused downstream plan is only
    byte-equivalent to a full replan if the constraint set above it is
    *identical*, not merely close.  Anything that drifts — even by one ulp
    — must invalidate the suffix.
    """
    old_iv = [
        (r.src, r.dst, r.start if r.start > now else now, r.end)
        for r in old.reservations
        if r.end > now
    ]
    new_iv = [
        (r.src, r.dst, r.start if r.start > now else now, r.end)
        for r in new.reservations
        if r.end > now
    ]
    old_iv.sort()
    new_iv.sort()
    return old_iv == new_iv


class InterCoflowSimulator:
    """Event-driven replay of a trace under Sunflow inter-Coflow scheduling.

    Args:
        trace: the Coflows with their arrival times.
        bandwidth_bps: link rate ``B``.
        delta: reconfiguration delay ``δ``.
        policy: inter-Coflow priority policy (shortest-Coflow-first by
            default, as in the paper's evaluation).
        order: intra-Coflow reservation consideration order.
        guard: optional starvation guard; its ``τ`` slices are reserved in
            every plan and serve all Coflows on the enabled circuits.
        priority_classes: operator-assigned classes per Coflow id (lower is
            more important); defaults to a single class.
        incremental: when True (default), replans reuse the unchanged
            prefix of the previous plan instead of recomputing every
            active Coflow at every event; results are identical to the
            full-replan path (``incremental=False``), which remains
            available for validation.  Guarded runs always use the full
            path (the guard horizon moves every event, so no prefix
            survives anyway).
        perf: counter sink for replans avoided / reservations made / wall
            time per phase; a fresh :class:`~repro.perf.PerfCounters` is
            created if omitted and exposed as :attr:`perf`.
    """

    def __init__(
        self,
        trace: CoflowTrace,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        delta: float = DEFAULT_DELTA,
        policy: Optional[Policy] = None,
        order: ReservationOrder = ReservationOrder.ORDERED_PORT,
        guard: Optional[StarvationGuard] = None,
        priority_classes: Optional[Dict[int, int]] = None,
        rng: Optional[random.Random] = None,
        incremental: bool = True,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        self.trace = trace.sorted_by_arrival()
        self.bandwidth_bps = bandwidth_bps
        self.delta = delta
        self.policy = policy if policy is not None else ShortestFirst()
        self.guard = guard
        self.priority_classes = priority_classes or {}
        self.scheduler = SunflowScheduler(delta=delta, order=order, rng=rng)
        self.incremental = incremental
        self.perf = perf if perf is not None else PerfCounters()
        # Let the scheduler charge its packing / kernel time to the same
        # counters so the ``plan.*`` sub-timers land in one snapshot.
        self.scheduler.perf = self.perf
        # Incremental-replan state: a persistent layered PRT plus the plan
        # stack it currently holds, in planning (priority) order.
        self._prt = PortReservationTable()
        self._layers: List[_PlanLayer] = []
        #: Journal size past which the layered PRT is compacted by a full
        #: recompute (kept layers never shrink it on their own).
        self._compact_reservations = 60_000
        #: Dead (completed-Coflow) layers counted by the last prefix walk.
        #: When they outnumber the active set, the next replan compacts —
        #: keeping the per-event walk O(active), not O(history).
        self._dead_layers = 0
        #: Per-Coflow view cache for ``_ordered_ids``: ``cid -> (state,
        #: view)``.  The state reference guards against a foreign driver
        #: (the differential suites replan hand-built active dicts) reusing
        #: a view over the wrong ``remaining`` mapping.
        self._views: Dict[int, Tuple[_ActiveCoflow, CoflowView]] = {}

    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Replay the whole trace; returns one record per Coflow."""
        self.begin_run()
        self.event_times = run_replay(self, list(self.trace))
        return self.finish_run()

    def begin_run(self, report=None) -> None:
        """Reset per-run state; the ReplayHost hooks are live afterwards.

        Split from :meth:`run` so a composite host (the K-core simulator)
        can drive several per-core instances through one shared
        :func:`~repro.sim.engine.run_replay` loop.

        Args:
            report: optional completion-record sink (anything with
                ``add(record)``).  The streaming replay passes a
                bounded-memory :class:`~repro.sim.streaming.StreamingReport`
                here; by default a full in-memory
                :class:`~repro.sim.results.SimulationReport` is created.
        """
        if report is None:
            report = SimulationReport("sunflow", self.bandwidth_bps, self.delta)
        self._report = report
        self._active = {}
        self._schedules = {}
        self._prt = PortReservationTable()
        self._layers = []
        self._dead_layers = 0
        self._views = {}
        # Per-Coflow completion predictions, re-pushed only when a plan
        # object actually changes; ``peek_time`` is the next completion.
        self._completions = IndexedEventQueue()
        self._predicted = {}

    def finish_run(self) -> SimulationReport:
        """End the run :meth:`begin_run` started; returns its report."""
        return self._report

    # ------------------------------------------------------------------
    # ReplayHost hooks (driven by repro.sim.engine.run_replay)
    # ------------------------------------------------------------------
    def has_active(self) -> bool:
        return bool(self._active)

    def admit(self, coflow: Coflow, now: float) -> None:
        self._active[coflow.coflow_id] = _ActiveCoflow(
            coflow=coflow,
            remaining=PackedDemand(coflow.processing_times(self.bandwidth_bps)),
        )

    def plan(self, now: float, next_arrival: float) -> float:
        perf = self.perf
        perf.inc("events")
        with perf.timer("plan"):
            schedules = self._schedules = self._replan(self._active, now)
        completions = self._completions
        predicted = self._predicted
        for cid, plan in schedules.items():
            if predicted.get(cid) is not plan:
                predicted[cid] = plan
                completions.schedule(cid, plan.completion_time)
        event_time = min(next_arrival, completions.peek_time())
        if self.guard is not None:
            # Wake at the next guard-slice end inside the horizon so
            # Coflows drained by shared guard service complete promptly.
            for window in self.guard.windows_between(now, event_time):
                if window.end > now + TIME_EPS:
                    event_time = min(event_time, window.end)
                    break
        return event_time

    def advance(self, now: float, event_time: float) -> None:
        perf = self.perf
        with perf.timer("advance"):
            self._advance(self._active, self._schedules, now, event_time)
        with perf.timer("record"):
            self._record_completions(self._active, self._report, event_time)

    # ------------------------------------------------------------------
    def _ordered_ids(self, active: Dict[int, _ActiveCoflow]) -> List[int]:
        """Active Coflow ids in the policy's priority order.

        The per-Coflow :class:`~repro.core.policies.CoflowView` is cached
        across events with write-site invalidation: a view survives until
        its Coflow's ``remaining`` is written (``bottleneck_cache`` reset —
        the same signal the SEBF bottleneck memo uses).  Cache state is
        keyed by the state object's identity, so foreign drivers (the
        differential suites replan hand-built active dicts) can never read
        a view over the wrong ``remaining`` mapping.
        """
        cache = self._views
        priority_classes = self.priority_classes
        views: List[CoflowView] = []
        for cid, state in active.items():
            entry = cache.get(cid)
            if entry is None or entry[0] is not state:
                view = CoflowView(
                    coflow_id=cid,
                    arrival_time=state.coflow.arrival_time,
                    remaining_times=state.remaining,
                    priority_class=priority_classes.get(cid, 0),
                    bottleneck_hint=state.bottleneck_cache,
                )
                cache[cid] = (state, view)
            else:
                view = entry[1]
            if state.bottleneck_cache is None:
                # Memoize for the next event: ``remaining`` writes reset
                # the cache, so the hint is always the exact recompute.
                view.bottleneck_hint = None
                state.bottleneck_cache = view.bottleneck_hint = view.bottleneck
            elif view.bottleneck_hint is None:
                view.bottleneck_hint = state.bottleneck_cache
            views.append(view)
        if len(cache) > len(views):
            # Foreign driver dropped Coflows without _record_completions;
            # prune so the view cache stays O(active).
            for cid in [cid for cid in cache if cid not in active]:
                del cache[cid]
        return [view.coflow_id for view in self.policy.order(views)]

    def _replan(
        self, active: Dict[int, _ActiveCoflow], now: float
    ) -> Dict[int, CoflowSchedule]:
        """(Re)plan every active Coflow's remaining demand at ``now``.

        Dispatches to the incremental prefix-reuse path unless it is
        disabled, a starvation guard is active (the guard's reservation
        horizon moves with every event, so no plan prefix survives and the
        full path is just as fast), or the consideration order is RANDOM
        (every plan the incremental path skips would also skip that plan's
        ``rng.shuffle``, desynchronizing the shared random stream and with
        it every later plan).
        """
        if (
            self.incremental
            and self.guard is None
            and self.scheduler.order is not ReservationOrder.RANDOM
        ):
            return self._replan_incremental(active, now)
        return self._replan_full(active, now)

    def _replan_full(
        self, active: Dict[int, _ActiveCoflow], now: float
    ) -> Dict[int, CoflowSchedule]:
        """Re-run InterCoflow over the remaining demand of active Coflows."""
        ordered = self._ordered_ids(active)
        demands = [(cid, active[cid].remaining) for cid in ordered]
        established = {cid: state.established for cid, state in active.items()}
        perf = self.perf
        perf.inc("full_replans")

        horizon = self._guard_horizon(active, now)
        while True:
            prt = PortReservationTable()
            if self.guard is not None:
                self.guard.reserve_windows(prt, now, horizon)
            prt, schedules = self.scheduler.schedule_many(
                demands, start_time=now, prt=prt, established=established
            )
            if self.guard is None:
                break
            latest = max(s.completion_time for s in schedules.values())
            if latest <= horizon - self.guard.cycle:
                break
            # Plan ran past the reserved guard region; extend and retry so
            # no plan escapes the guard's periodic blackouts.
            horizon = latest + 2 * self.guard.max_service_gap
        perf.inc("plans_computed", len(schedules))
        perf.inc(
            "reservations_made",
            sum(len(s.reservations) for s in schedules.values()),
        )
        return schedules

    def _replan_incremental(
        self, active: Dict[int, _ActiveCoflow], now: float
    ) -> Dict[int, CoflowSchedule]:
        """Prefix-reuse replanning over the persistent layered PRT.

        ``schedule_many`` fills the PRT in strict priority order, so a
        Coflow's plan depends only on (a) its own remaining demand and
        established circuits and (b) the port time reserved by
        higher-priority Coflows.  At an event we therefore:

        1. keep the prefix of plan layers whose Coflow is untouched (no
           reservation started before ``now``) and whose priority rank is
           unchanged;
        2. roll the PRT back to the first dirty layer;
        3. walking down the dirty suffix, *replay* a cached plan verbatim
           while the constraint set above is bit-identical to the one it
           was computed against, and re-run ``schedule_demand`` otherwise.

        A replan whose future occupancy comes out bit-identical to the
        cached plan (the common case: a served Coflow continuing its
        established circuits) keeps the suffix below it reusable.
        """
        perf = self.perf
        perf.inc("incremental_replans")
        order_ids = self._ordered_ids(active)
        prt, layers = self._prt, self._layers
        if len(prt) > self._compact_reservations or self._dead_layers > max(
            64, 2 * len(active)
        ):
            # The journal only grows while layers are kept in place, and
            # completed Coflows' dead layers pile up at the front of the
            # stack, stretching every prefix walk.  Once either passes its
            # threshold, pay one full recompute (identical results by
            # construction) to reset every per-port array and drop the
            # dead prefix — bounding per-event cost by the active set, not
            # the trace history.
            perf.inc("prt_compactions")
            prt.clear()
            layers.clear()
            self._dead_layers = 0

        # 1. Reusable prefix.
        keep = 0
        ptr = 0
        above_ids: Set[int] = set()
        while keep < len(layers):
            layer = layers[keep]
            if layer.coflow_id not in active:
                # Completed Coflow: all its port time lies in the past, so
                # the layer constrains nothing ahead and may stay in place.
                if layer.plan.completion_time > now + TIME_EPS:
                    break
                above_ids.add(layer.coflow_id)
                keep += 1
                continue
            if ptr >= len(order_ids) or order_ids[ptr] != layer.coflow_id:
                break
            if layer.plan.first_start() < now - TIME_EPS:
                # Received service or setup.  A fresh recompute would
                # usually reproduce this plan's future bit-for-bit; when
                # that is provable, swap in the continuation plan and keep
                # the layer's reservations in place (no rollback, no
                # replanning).
                _t0 = perf_counter()
                transformed = self._transform_continuation(
                    layer.plan, active[layer.coflow_id], now, above_ids
                )
                perf.add_time("plan.transform", perf_counter() - _t0)
                if transformed is None:
                    perf.inc("transform_fallbacks")
                    break
                layer.plan = transformed
                perf.inc("plans_transformed")
            above_ids.add(layer.coflow_id)
            keep += 1
            ptr += 1

        # 2. Roll back the dirty suffix.
        self._dead_layers = keep - ptr
        dropped = layers[keep:]
        if ptr == 0:
            # No live plan survives the prefix walk; anything still kept is
            # a completed Coflow whose port time lies wholly in the past and
            # so constrains nothing from ``now`` on.  Dropping the whole
            # table is both the compaction (per-port lists would otherwise
            # grow with the age of the run) and a rollback that costs O(1)
            # instead of popping every journal entry.
            if layers or dropped:
                perf.inc("prt_compactions")
                prt.clear()
                layers.clear()
                self._dead_layers = 0
        elif dropped:
            _t0 = perf_counter()
            undone = prt.rollback(dropped[0].token)
            perf.add_time("plan.rollback", perf_counter() - _t0)
            perf.inc("reservations_rolled_back", undone)
            del layers[keep:]
        perf.inc("plans_kept", ptr)
        perf.inc("replans_avoided", ptr)

        cached = [layer for layer in dropped if layer.coflow_id in active]
        cached_ids = {layer.coflow_id for layer in cached}
        schedules = {
            layer.coflow_id: layer.plan
            for layer in layers
            if layer.coflow_id in active
        }

        # 3. Rebuild the suffix.  Reuse here rests on a *superset*
        # argument rather than bit-identical context: while every layer
        # placed so far holds at least the port time it held when a
        # cached plan below was computed (verbatim replays and
        # continuation transforms hold exactly it; a new arrival only
        # adds), added occupancy can only remove feasible instants — the
        # cached plan's own blocking chain already proves nothing could
        # have been placed earlier, so if its reservations still *fit*
        # the table, Algorithm 1 would reproduce them bit-for-bit.  The
        # fit test is `PortReservationTable.replay` itself: a conflict
        # rolls back and falls through to a true recompute.  A fresh
        # recompute whose future occupancy differs from the dropped plan
        # (checked exactly) breaks the superset for everything below.
        scheduler = self.scheduler
        superset = True
        cptr = 0
        for cid in order_ids[ptr:]:
            state = active[cid]
            token = prt.checkpoint()
            old_plan = None
            if cptr < len(cached) and cached[cptr].coflow_id == cid:
                old_plan = cached[cptr].plan
                cptr += 1
            elif cid in cached_ids:
                # Priority reordering within the suffix: a layer above
                # this Coflow may have dropped port time it held when the
                # cached plans below were computed.
                superset = False
            plan = None
            if superset and old_plan is not None:
                if (
                    old_plan.first_start() >= now - TIME_EPS
                    and not state.established
                ):
                    _t0 = perf_counter()
                    try:
                        prt.replay(old_plan.reservations)
                    except PortConflictError:
                        perf.add_time("plan.replay", perf_counter() - _t0)
                        perf.inc(
                            "reservations_rolled_back", prt.rollback(token)
                        )
                    else:
                        perf.add_time("plan.replay", perf_counter() - _t0)
                        plan = old_plan
                        perf.inc("plans_reused")
                        perf.inc("replans_avoided")
                        perf.inc(
                            "reservations_replayed", len(plan.reservations)
                        )
                elif old_plan.first_start() < now - TIME_EPS:
                    # A served Coflow displaced by the reorder: its
                    # continuation plan is still provable the same way as
                    # in the prefix walk; replaying it performs the fit
                    # test against the layers now above it.
                    _t0 = perf_counter()
                    transformed = self._transform_continuation(
                        old_plan, state, now, None
                    )
                    perf.add_time("plan.transform", perf_counter() - _t0)
                    if transformed is not None:
                        _t0 = perf_counter()
                        try:
                            prt.replay(transformed.reservations)
                        except PortConflictError:
                            perf.add_time(
                                "plan.replay", perf_counter() - _t0
                            )
                            perf.inc(
                                "reservations_rolled_back",
                                prt.rollback(token),
                            )
                        else:
                            perf.add_time(
                                "plan.replay", perf_counter() - _t0
                            )
                            plan = transformed
                            perf.inc("plans_transformed")
                            perf.inc("replans_avoided")
                            perf.inc(
                                "reservations_replayed",
                                len(plan.reservations),
                            )
            if plan is None:
                plan = scheduler.schedule_demand(
                    prt,
                    cid,
                    state.remaining,
                    start_time=now,
                    established=state.established,
                )
                # ``remaining`` is this plan's baseline again; future
                # banking re-dirties circuits from here.
                state.banked_circuits.clear()
                perf.inc("plans_computed")
                perf.inc("reservations_made", len(plan.reservations))
                if superset and old_plan is not None:
                    superset = _same_future_occupancy(old_plan, plan, now)
            layers.append(_PlanLayer(coflow_id=cid, plan=plan, token=token))
            schedules[cid] = plan
        return schedules

    def _transform_continuation(
        self,
        plan: CoflowSchedule,
        state: _ActiveCoflow,
        now: float,
        above_ids: Optional[Set[int]],
    ) -> Optional[CoflowSchedule]:
        """The continuation plan a fresh recompute would produce — or None.

        A served Coflow's replan at ``now`` is, in the common case, just
        its previous plan with every running reservation clamped to start
        at ``now``: established circuits continue to their anchored ends
        and untouched future reservations are re-placed identically.  This
        method proves that outcome *bit-for-bit* and builds the plan
        without running Algorithm 1 — the layer's reservations then stay
        in the PRT (old head intervals ``[s, end)`` and recomputed heads
        ``[now, end)`` occupy identical port time from ``now`` on).

        The proof obligations, each checked exactly (any failure returns
        None and the caller falls back to a true recompute):

        * the scheduler is deterministic for this layer — ``ORDERED_PORT``
          consideration order (``RANDOM`` consumes rng state, and
          ``SORTED_DEMAND`` re-orders entries as banked demand changes)
          and no quantization (re-quantizing banked demand re-rounds);
        * every reservation covering ``now`` is an established circuit
          whose recomputed continuation ``now + (setup + remaining)``
          lands on its anchor within ``TIME_EPS`` (the planner's anchor
          snap then reproduces the end exactly);
        * every strictly-future reservation belongs to a circuit that was
          never re-banked since the plan was computed (its remaining is
          bitwise the planner's own value) and is not an established
          circuit's overflow;
        * every future circuit is provably *blocked at ``now``* in the
          recompute's start batch: one of its ports belongs to one of
          this Coflow's own established heads that precedes the circuit
          in ``ORDERED_PORT`` consideration order (and so is re-placed —
          marking its ports taken — before the circuit is examined), or
          is covered at ``now`` by a reservation of a layer above this
          one.  A circuit free on both ports at ``now`` could be placed
          there and then, and only then, diverge from the old plan; once
          every circuit is blocked at the origin, its
          wait-release-reattempt chain sees the exact port occupancy the
          original run saw and converges to the same placement;
        * the demand the plan serves covers exactly the circuits with
          remaining demand.

        Two call sites share this proof.  The prefix walk transforms a
        layer *in place* — the old reservations stay in the PRT (which
        then also holds lower layers' reservations, so coverage only
        counts when the covering Coflow is in ``above_ids``).  The suffix
        rebuild transforms a *dropped* plan — the PRT holds exactly the
        layers above (pass ``above_ids=None``: any coverage counts), and
        the caller must `replay` the returned reservations, which doubles
        as the fit test against layers that changed above.
        """
        scheduler = self.scheduler
        if (
            scheduler.order is not ReservationOrder.ORDERED_PORT
            or scheduler.quantum is not None
        ):
            return None
        reservations = plan.reservations
        prt = self._prt
        established = state.established
        remaining = state.remaining
        delta = scheduler.delta
        cutoff = plan.index_at_or_after(now)
        cid = plan.coflow_id

        native = native_module()
        if native is not None:
            # One C call runs the whole proof (heads, blocked-at-now walk,
            # coverage) against the PRT's array buffers.  It returns the
            # rebuilt heads on success, ``None`` when a proof obligation
            # fails, and ``False`` when it declines (ports outside int64
            # hashing range, foreign reservation types) — only then does
            # the pure-Python twin below run.
            result = native.transform_continuation(
                prt,
                Reservation,
                cid,
                now,
                delta,
                TIME_EPS,
                reservations,
                cutoff,
                established,
                remaining,
                state.banked_circuits,
                above_ids,
            )
            if result is not False:
                if result is None:
                    return None
                return CoflowSchedule(
                    coflow_id=cid,
                    start_time=now,
                    reservations=result + reservations[cutoff:],
                )

        heads: List[Reservation] = []
        #: Established heads are pairwise port-disjoint (their reservations
        #: all cover ``now``), so one dict per side resolves "is there a
        #: preceding head on this port" in O(1).
        head_by_src: Dict[int, int] = {}
        head_by_dst: Dict[int, int] = {}
        for i in range(cutoff):
            old = reservations[i]
            if now >= old.end - TIME_EPS:
                continue  # fully in the past: constrains nothing ahead
            circuit = (old.src, old.dst)
            est = established.get(circuit)
            if est is None or est[1] != old.end or old.src in head_by_src:
                return None
            rem = remaining.get(circuit, 0.0)
            if rem <= TIME_EPS:
                # The recompute would drop this circuit entirely while the
                # old reservation still holds port time: not a continuation.
                return None
            setup = min(delta, est[0])
            # Exact mirror of ``_make_reservation``: ``desired_length =
            # setup + remaining``, ``end = t + desired_length``, snapped to
            # the anchor when within tolerance.
            if abs(now + (setup + rem) - old.end) > TIME_EPS:
                return None
            heads.append(
                Reservation(
                    start=now,
                    end=old.end,
                    src=old.src,
                    dst=old.dst,
                    coflow_id=cid,
                    setup=setup,
                )
            )
            head_by_src[old.src] = old.dst
            head_by_dst[old.dst] = old.src
        if len(heads) != len(established):
            return None

        # The future-reservation walk is the transform's hot loop (it
        # touches every planned reservation, not just the established
        # heads), so the lookups it repeats per iteration are bound once.
        banked = state.banked_circuits
        pending_circuits: Set[Circuit] = set()
        pending_add = pending_circuits.add
        head_src_of = head_by_src.get
        head_dst_of = head_by_dst.get
        input_at = prt.input_reservation_at
        output_at = prt.output_reservation_at
        for i in range(cutoff, len(reservations)):
            future = reservations[i]
            src = future.src
            dst = future.dst
            circuit = (src, dst)
            if circuit in pending_circuits:
                continue
            head_dst = head_src_of(src)
            if head_dst == dst or circuit in banked:
                return None
            # Blocked-at-now proof (see docstring).
            if head_dst is not None and head_dst < dst:
                pending_add(circuit)
                continue
            head_src = head_dst_of(dst)
            if head_src is not None and head_src < src:
                pending_add(circuit)
                continue
            res = input_at(src, now)
            if res is None or (
                above_ids is not None and res.coflow_id not in above_ids
            ):
                res = output_at(dst, now)
                if res is None or (
                    above_ids is not None and res.coflow_id not in above_ids
                ):
                    return None
            pending_add(circuit)

        for circuit, rem in remaining.items():
            if (
                rem > TIME_EPS
                and circuit not in pending_circuits
                and head_by_src.get(circuit[0]) != circuit[1]
            ):
                return None

        return CoflowSchedule(
            coflow_id=cid,
            start_time=now,
            reservations=heads + reservations[cutoff:],
        )

    def _guard_horizon(self, active: Dict[int, _ActiveCoflow], now: float) -> float:
        if self.guard is None:
            return now
        serial = sum(
            sum(state.remaining.values()) + len(state.remaining) * self.delta
            for state in active.values()
        )
        inflation = self.guard.cycle / self.guard.period
        return now + serial * (1.0 + inflation) + 2 * self.guard.max_service_gap

    # ------------------------------------------------------------------
    def _advance(
        self,
        active: Dict[int, _ActiveCoflow],
        schedules,
        start: float,
        end: float,
    ) -> None:
        """Bank transfer progress from the plan over ``[start, end)``.

        Every plan in ``schedules`` was computed (or revalidated) at
        ``start``, so its reservations all begin at or after ``start``;
        the bisect visits only those beginning before ``end`` instead of
        scanning the whole plan.
        """
        for cid, schedule in schedules.items():
            state = active[cid]
            established: Dict[Circuit, Tuple[float, float]] = {}
            reservations = schedule.reservations
            cutoff = schedule.index_at_or_after(end)
            for index in range(cutoff):
                reservation = reservations[index]
                served = reservation.transmitted_before(end)
                circuit = reservation.circuit
                if served > 0:
                    left = state.remaining.get(circuit, 0.0) - served
                    state.remaining[circuit] = max(0.0, left)
                    state.banked_circuits.add(circuit)
                    state.bottleneck_cache = None
                # A reconfiguration that began before the event counts as a
                # switching event even if the plan is later discarded.
                if reservation.setup > 0:
                    state.switching_count += 1
                if end < reservation.end - TIME_EPS:
                    # Circuit is up (or mid-setup) at the event instant; a
                    # replan reusing it immediately pays only the remaining
                    # setup time, and anchoring the planned end makes the
                    # continuation reproducible bit-for-bit.
                    established[circuit] = (
                        max(0.0, reservation.transmit_start - end),
                        reservation.end,
                    )
            state.established = established
        if self.guard is not None:
            self._apply_guard_service(active, start, end)

    def _apply_guard_service(
        self, active: Dict[int, _ActiveCoflow], start: float, end: float
    ) -> None:
        """Fluid shared service during the guard's ``τ`` slices in [start, end)."""
        assert self.guard is not None
        for window in self.guard.windows_between(start, end):
            transmit_start = window.start + self.guard.delta
            overlap = min(end, window.end) - max(start, transmit_start)
            if overlap <= TIME_EPS:
                continue
            for src, dst in self.guard.assignments[window.assignment_index]:
                sharers = [
                    state
                    for state in active.values()
                    if state.remaining.get((src, dst), 0.0) > TIME_EPS
                ]
                if not sharers:
                    continue
                share = overlap / len(sharers)
                for state in sharers:
                    left = state.remaining[(src, dst)] - share
                    state.remaining[(src, dst)] = max(0.0, left)
                    state.bottleneck_cache = None

    # ------------------------------------------------------------------
    def _record_completions(
        self, active: Dict[int, _ActiveCoflow], report: SimulationReport, now: float
    ) -> None:
        finished = [cid for cid, state in active.items() if state.done]
        for cid in finished:
            state = active.pop(cid)
            self._completions.cancel(cid)
            self._predicted.pop(cid, None)
            self._views.pop(cid, None)
            report.add(
                make_record(
                    state.coflow,
                    completion_time=now,
                    bandwidth_bps=self.bandwidth_bps,
                    delta=self.delta,
                    switching_count=state.switching_count,
                )
            )


def simulate_inter_sunflow(
    trace: CoflowTrace,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    policy: Optional[Policy] = None,
    order: ReservationOrder = ReservationOrder.ORDERED_PORT,
    guard: Optional[StarvationGuard] = None,
    priority_classes: Optional[Dict[int, int]] = None,
    rng: Optional[random.Random] = None,
) -> SimulationReport:
    """One-call trace replay under Sunflow inter-Coflow scheduling."""
    simulator = InterCoflowSimulator(
        trace,
        bandwidth_bps=bandwidth_bps,
        delta=delta,
        policy=policy,
        order=order,
        guard=guard,
        priority_classes=priority_classes,
        rng=rng,
    )
    return simulator.run()
