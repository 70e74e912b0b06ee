"""K-core optical circuit switching: fabric model and multi-core Sunflow.

The Sunflow paper (§6) defers "controlling a network of circuit switches"
to future work.  The two K-core OCS papers in PAPERS.md supply the model
this module implements: every port pair is connected through ``K``
parallel switch *cores* (each rack owns one transceiver per core), each
core enforcing its own port constraint with its own reconfiguration delay
``δ_k`` and line rate ``B_k``.  A schedule places reservations on the
per-core :class:`~repro.core.prt.PortReservationTable` group
(:class:`~repro.core.prt.CoreReservationTables`).

Three coflow-to-core placement policies are provided, registered in
:data:`MULTICORE_POLICIES`:

* ``"ok-approx"`` — the *O(K)-approximation* discipline: whole Coflows
  (no splitting) are assigned, in priority order, to the core that
  minimizes the resulting bottleneck-port completion estimate
  (least-loaded-core assignment, :class:`CoreLoadTracker`), and each
  core's Coflows are then scheduled by single-core Sunflow against that
  core's table.  Per core, Lemma 1's ``2 × T^c_L`` holds; the per-core
  bound relates to the K-core lower bound
  (:func:`~repro.core.bounds.multicore_circuit_lower_bound`) by at most a
  factor of ``K``, giving the O(K) guarantee of the first K-core paper.
* ``"balanced-split"`` — the *performance-guarantee* discipline of the
  multi-core OCS paper: every Coflow's demand is split across all cores
  proportionally to core bandwidth, so each core sees an identically
  shaped ``1/K`` workload and single-core Sunflow's 2× guarantee carries
  over against the K-core bound directly.
* ``"first-fit"`` — flow-level spreading: Algorithm 1 generalized so
  MakeReservation tries each core in index order and reserves on the
  first whose ports are free and whose gap fits.  Greedy and intra-only.

Every policy degenerates *exactly* to single-switch Sunflow at ``K = 1``
— the differential suites pin that bitwise, through the planner here and
through the public API.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.coflow import Coflow
from repro.core.prt import (
    CoreReservationTables,
    PortReservationTable,
    Reservation,
    TIME_EPS,
)
from repro.core.sunflow import (
    CoflowSchedule,
    ReservationOrder,
    SunflowScheduler,
    _Entry,
    make_entries,
)
from repro.units import (
    BITS_PER_BYTE,
    DEFAULT_BANDWIDTH,
    DEFAULT_DELTA,
    processing_time,
    size_from_processing_time,
)

Circuit = Tuple[int, int]


# ----------------------------------------------------------------------
# Fabric model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SwitchCore:
    """One switch core of a K-core OCS fabric.

    Attributes:
        index: core number in ``[0, K)``; also the tie-break order every
            placement rule uses, so schedules are deterministic.
        bandwidth_bps: the core's per-port line rate in bits per second.
        delta: the core's circuit reconfiguration delay in seconds.
    """

    index: int
    bandwidth_bps: float = DEFAULT_BANDWIDTH
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"core index must be non-negative, got {self.index!r}")
        if self.bandwidth_bps <= 0:
            raise ValueError(
                f"core bandwidth must be positive, got {self.bandwidth_bps!r}"
            )
        if self.delta < 0:
            raise ValueError(f"core delta must be non-negative, got {self.delta!r}")

    @property
    def rate_bytes(self) -> float:
        """Line rate in bytes per second."""
        return self.bandwidth_bps / BITS_PER_BYTE


def uniform_cores(
    num_cores: int,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
) -> Tuple[SwitchCore, ...]:
    """``K`` identical cores (the common homogeneous-fabric case)."""
    if num_cores <= 0:
        raise ValueError(f"core count must be positive, got {num_cores!r}")
    return tuple(
        SwitchCore(index=k, bandwidth_bps=bandwidth_bps, delta=delta)
        for k in range(num_cores)
    )


def build_cores(
    num_cores: int,
    bandwidth_bps: float = DEFAULT_BANDWIDTH,
    delta: float = DEFAULT_DELTA,
    core_bandwidths: Optional[Sequence[float]] = None,
    core_deltas: Optional[Sequence[float]] = None,
) -> Tuple[SwitchCore, ...]:
    """Cores from base values plus optional per-core overrides."""
    if num_cores <= 0:
        raise ValueError(f"core count must be positive, got {num_cores!r}")
    for label, values in (("bandwidths", core_bandwidths), ("deltas", core_deltas)):
        if values is not None and len(values) != num_cores:
            raise ValueError(
                f"core_{label} has {len(values)} entries for {num_cores} cores"
            )
    return tuple(
        SwitchCore(
            index=k,
            bandwidth_bps=(
                core_bandwidths[k] if core_bandwidths is not None else bandwidth_bps
            ),
            delta=core_deltas[k] if core_deltas is not None else delta,
        )
        for k in range(num_cores)
    )


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MulticorePolicy:
    """Declarative description of one coflow-to-core placement policy."""

    name: str
    supports_intra: bool
    supports_inter: bool
    description: str


MULTICORE_POLICIES: Dict[str, MulticorePolicy] = {
    policy.name: policy
    for policy in (
        MulticorePolicy(
            name="ok-approx",
            supports_intra=True,
            supports_inter=True,
            description=(
                "O(K)-approximation: whole Coflows to the least-loaded "
                "core, single-core Sunflow per core"
            ),
        ),
        MulticorePolicy(
            name="balanced-split",
            supports_intra=True,
            supports_inter=True,
            description=(
                "performance-guarantee: bandwidth-proportional demand "
                "split across all cores"
            ),
        ),
        MulticorePolicy(
            name="first-fit",
            supports_intra=True,
            supports_inter=False,
            description=(
                "flow-level spreading: reserve on the first core whose "
                "ports are free and whose gap fits"
            ),
        ),
    )
}

#: Placement used when a spec asks for cores without naming a policy.
DEFAULT_INTER_POLICY = "ok-approx"
DEFAULT_INTRA_POLICY = "first-fit"


def resolve_multicore_policy(name: Optional[str], mode: str) -> MulticorePolicy:
    """Validate a policy name against the registry and the mode."""
    if name is None:
        name = DEFAULT_INTRA_POLICY if mode == "intra" else DEFAULT_INTER_POLICY
    try:
        policy = MULTICORE_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown multicore policy {name!r}; expected one of "
            f"{sorted(MULTICORE_POLICIES)}"
        ) from None
    supported = policy.supports_intra if mode == "intra" else policy.supports_inter
    if not supported:
        raise ValueError(
            f"multicore policy {policy.name!r} does not support mode {mode!r}"
        )
    return policy


# ----------------------------------------------------------------------
# Demand placement helpers
# ----------------------------------------------------------------------
def split_demand(
    demand_bytes: Mapping[Circuit, float], cores: Sequence[SwitchCore]
) -> List[Dict[Circuit, float]]:
    """Bandwidth-proportional byte shares, one mapping per core.

    With one core the share factor is exactly ``1.0``, so the split is
    the identity bitwise — the K=1 degeneracy the equivalence tests pin.
    """
    total = sum(core.bandwidth_bps for core in cores)
    fractions = [core.bandwidth_bps / total for core in cores]
    return [
        {circuit: size * fraction for circuit, size in demand_bytes.items()}
        for fraction in fractions
    ]


class CoreLoadTracker:
    """Per-core unfinished port load in bytes, for least-loaded assignment.

    The O(K)-approximation discipline assigns each Coflow, on arrival /
    in priority order, to the core minimizing the projected bottleneck:
    the busiest port's accumulated bytes (existing unfinished load plus
    the candidate Coflow's own) at the core's line rate, plus one
    reconfiguration delay.  Loads are maintained coarsely — added on
    assignment, removed on completion — which mirrors the papers'
    arrival-time estimates rather than instantaneous residuals.
    """

    def __init__(self, cores: Sequence[SwitchCore]) -> None:
        self.cores = tuple(cores)
        self._in_load: List[Dict[int, float]] = [{} for _ in cores]
        self._out_load: List[Dict[int, float]] = [{} for _ in cores]

    # ------------------------------------------------------------------
    @staticmethod
    def _port_bytes(
        demand_bytes: Mapping[Circuit, float]
    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        in_add: Dict[int, float] = {}
        out_add: Dict[int, float] = {}
        for (src, dst), size in demand_bytes.items():
            in_add[src] = in_add.get(src, 0.0) + size
            out_add[dst] = out_add.get(dst, 0.0) + size
        return in_add, out_add

    def score(self, core: int, demand_bytes: Mapping[Circuit, float]) -> float:
        """Projected bottleneck completion (seconds) if placed on ``core``."""
        in_add, out_add = self._port_bytes(demand_bytes)
        rate = self.cores[core].rate_bytes
        worst = 0.0
        for loads, adds in (
            (self._in_load[core], in_add),
            (self._out_load[core], out_add),
        ):
            for port, add in adds.items():
                load = (loads.get(port, 0.0) + add) / rate
                if load > worst:
                    worst = load
        return worst + self.cores[core].delta

    def assign(self, demand_bytes: Mapping[Circuit, float]) -> int:
        """Least-loaded core for this demand (ties to the lowest index)."""
        best = 0
        best_score = self.score(0, demand_bytes)
        for core in range(1, len(self.cores)):
            score = self.score(core, demand_bytes)
            if score < best_score - TIME_EPS:
                best = core
                best_score = score
        return best

    def add(self, core: int, demand_bytes: Mapping[Circuit, float]) -> None:
        in_add, out_add = self._port_bytes(demand_bytes)
        for loads, adds in (
            (self._in_load[core], in_add),
            (self._out_load[core], out_add),
        ):
            for port, add in adds.items():
                loads[port] = loads.get(port, 0.0) + add

    def remove(self, core: int, demand_bytes: Mapping[Circuit, float]) -> None:
        in_add, out_add = self._port_bytes(demand_bytes)
        for loads, adds in (
            (self._in_load[core], in_add),
            (self._out_load[core], out_add),
        ):
            for port, add in adds.items():
                left = loads.get(port, 0.0) - add
                if left <= TIME_EPS:
                    loads.pop(port, None)
                else:
                    loads[port] = left


# ----------------------------------------------------------------------
# Multi-core schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoreReservation:
    """A reservation bound to one switch core."""

    core: int
    reservation: Reservation


@dataclass
class MultiCoreSchedule:
    """The planned per-core reservations for one Coflow."""

    coflow_id: int
    start_time: float
    reservations: List[CoreReservation] = field(default_factory=list)

    @property
    def completion_time(self) -> float:
        if not self.reservations:
            return self.start_time
        return max(item.reservation.end for item in self.reservations)

    @property
    def makespan(self) -> float:
        return self.completion_time - self.start_time

    @property
    def num_setups(self) -> int:
        return sum(1 for item in self.reservations if item.reservation.setup > 0)

    def per_core_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for item in self.reservations:
            counts[item.core] = counts.get(item.core, 0) + 1
        return counts


# ----------------------------------------------------------------------
# The multi-core scheduler
# ----------------------------------------------------------------------
class MultiCoreSunflowScheduler:
    """Sunflow planning over a K-core OCS fabric.

    Owns one single-core :class:`~repro.core.sunflow.SunflowScheduler`
    per core (each with the core's ``δ``), plus the joint first-fit
    planner that spreads one Coflow's flows across the cores.

    Demand is carried in **bytes** at this layer — per-core processing
    times differ when core bandwidths do, so seconds are only derived at
    the moment a core is chosen.

    Args:
        cores: the fabric, ordered by :attr:`SwitchCore.index`.
        order: intra-Coflow demand consideration order.
        rng: random source shared by every per-core scheduler
            (``ReservationOrder.RANDOM`` only).
    """

    def __init__(
        self,
        cores: Sequence[SwitchCore],
        order: ReservationOrder = ReservationOrder.ORDERED_PORT,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not cores:
            raise ValueError("at least one switch core is required")
        for position, core in enumerate(cores):
            if core.index != position:
                raise ValueError(
                    f"core at position {position} has index {core.index}; "
                    "cores must be ordered by index"
                )
        self.cores = tuple(cores)
        self.order = order
        self._rng = rng if rng is not None else random.Random(0)
        self.schedulers = tuple(
            SunflowScheduler(delta=core.delta, order=order, rng=self._rng)
            for core in self.cores
        )
        #: Entries count as drained when their remaining bytes would
        #: transmit within ``TIME_EPS`` on the fastest core — the byte
        #: mirror of the planners' seconds-epsilon.
        self._byte_eps = TIME_EPS * max(core.rate_bytes for core in self.cores)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def new_tables(self) -> CoreReservationTables:
        return CoreReservationTables.fresh(self.num_cores)

    # ------------------------------------------------------------------
    # Whole-coflow / split placement (ok-approx and balanced-split)
    # ------------------------------------------------------------------
    def schedule_on_core(
        self,
        core: int,
        tables: CoreReservationTables,
        coflow_id: int,
        demand_bytes: Mapping[Circuit, float],
        start_time: float = 0.0,
    ) -> List[CoreReservation]:
        """Schedule one demand share entirely on ``core`` via single-core
        Sunflow (the per-core leg of ok-approx and balanced-split)."""
        bandwidth = self.cores[core].bandwidth_bps
        seconds = {
            circuit: processing_time(size, bandwidth)
            for circuit, size in demand_bytes.items()
            if size > 0
        }
        plan = self.schedulers[core].schedule_demand(
            tables[core], coflow_id, seconds, start_time=start_time
        )
        return [CoreReservation(core, r) for r in plan.reservations]

    def schedule_coflow(
        self,
        coflow: Coflow,
        policy: str = DEFAULT_INTRA_POLICY,
        tables: Optional[CoreReservationTables] = None,
        start_time: float = 0.0,
        loads: Optional[CoreLoadTracker] = None,
    ) -> MultiCoreSchedule:
        """Place one whole Coflow per ``policy`` (fresh tables by default)."""
        if tables is None:
            tables = self.new_tables()
        demand = coflow.demand()
        schedule = MultiCoreSchedule(
            coflow_id=coflow.coflow_id, start_time=start_time
        )
        if policy == "first-fit":
            return self.schedule_demand(
                tables, coflow.coflow_id, demand, start_time=start_time
            )
        if policy == "ok-approx":
            tracker = loads if loads is not None else CoreLoadTracker(self.cores)
            core = tracker.assign(demand)
            tracker.add(core, demand)
            schedule.reservations.extend(
                self.schedule_on_core(
                    core, tables, coflow.coflow_id, demand, start_time
                )
            )
            return schedule
        if policy == "balanced-split":
            for core, share in enumerate(split_demand(demand, self.cores)):
                schedule.reservations.extend(
                    self.schedule_on_core(
                        core, tables, coflow.coflow_id, share, start_time
                    )
                )
            return schedule
        raise ValueError(
            f"unknown multicore policy {policy!r}; expected one of "
            f"{sorted(MULTICORE_POLICIES)}"
        )

    def schedule_coflows(
        self,
        coflows: Sequence[Coflow],
        policy: str = DEFAULT_INTRA_POLICY,
        start_time: float = 0.0,
    ) -> Tuple[CoreReservationTables, Dict[int, MultiCoreSchedule]]:
        """Priority-ordered inter-Coflow scheduling on one table group."""
        tables = self.new_tables()
        loads = CoreLoadTracker(self.cores)
        schedules: Dict[int, MultiCoreSchedule] = {}
        for coflow in coflows:
            schedules[coflow.coflow_id] = self.schedule_coflow(
                coflow,
                policy=policy,
                tables=tables,
                start_time=start_time,
                loads=loads,
            )
        return tables, schedules

    # ------------------------------------------------------------------
    # First-fit joint planner (Algorithm 1 generalized across cores)
    # ------------------------------------------------------------------
    def schedule_demand(
        self,
        tables: CoreReservationTables,
        coflow_id: int,
        demand_bytes: Mapping[Circuit, float],
        start_time: float = 0.0,
    ) -> MultiCoreSchedule:
        """Reserve circuits for one Coflow, spreading flows across cores.

        MakeReservation's generalization: at each attempt instant, try the
        cores in index order and reserve on the first whose two ports are
        free and whose gap exceeds that core's ``δ_k``.  Everything else —
        non-preemption, the global consideration order, the event-driven
        release scan — carries over from Algorithm 1 unchanged.

        At ``K = 1`` the call *delegates* to the single-core scheduler, so
        one-core fabrics produce bit-identical plans to plain Sunflow
        (shared hot path, same float expressions).
        """
        if len(tables) != self.num_cores:
            raise ValueError(
                f"expected {self.num_cores} tables, got {len(tables)}"
            )
        if self.num_cores == 1:
            schedule = MultiCoreSchedule(
                coflow_id=coflow_id, start_time=start_time
            )
            schedule.reservations.extend(
                self.schedule_on_core(
                    0, tables, coflow_id, demand_bytes, start_time
                )
            )
            return schedule

        entries = self._make_entries(demand_bytes)
        schedule = MultiCoreSchedule(coflow_id=coflow_id, start_time=start_time)
        if not entries:
            return schedule

        num_cores = self.num_cores
        byte_eps = self._byte_eps
        pending_by_port: Dict[Tuple[int, int, int], Set[_Entry]] = {}
        for entry in entries:
            for core in range(num_cores):
                pending_by_port.setdefault((core, 0, entry.src), set()).add(entry)
                pending_by_port.setdefault((core, 1, entry.dst), set()).add(entry)
        outstanding = len(entries)

        counter = itertools.count()
        events: List[Tuple[float, int, int, int, int]] = []
        used_inputs = {entry.src for entry in entries}
        used_outputs = {entry.dst for entry in entries}
        seeded: Set[Tuple[float, int, int, int]] = set()
        for core, prt in enumerate(tables):
            for port in used_inputs:
                for end, src, dst in prt.release_events_for_input(port, start_time):
                    seeded.add((end, core, src, dst))
            for port in used_outputs:
                for end, src, dst in prt.release_events_for_output(port, start_time):
                    seeded.add((end, core, src, dst))
        for end, core, src, dst in sorted(seeded):
            heapq.heappush(events, (end, next(counter), core, src, dst))

        def attempt(batch, t: float) -> None:
            nonlocal outstanding
            for entry in sorted(batch, key=lambda e: e.order_index):
                if entry.remaining <= byte_eps:
                    continue
                placed = self._reserve_first_fit(tables, schedule, entry, t)
                if placed is not None:
                    core, reservation = placed
                    heapq.heappush(
                        events,
                        (
                            reservation.end,
                            next(counter),
                            core,
                            reservation.src,
                            reservation.dst,
                        ),
                    )
                if entry.remaining <= byte_eps:
                    for core in range(num_cores):
                        pending_by_port[(core, 0, entry.src)].discard(entry)
                        pending_by_port[(core, 1, entry.dst)].discard(entry)
                    outstanding -= 1

        attempt(entries, start_time)
        while outstanding > 0:
            if not events:
                raise RuntimeError(
                    f"coflow {coflow_id}: demand left but no future release"
                )
            t = events[0][0]
            released: Set[Tuple[int, int, int]] = set()
            while events and events[0][0] <= t + TIME_EPS:
                _, _, core, src, dst = heapq.heappop(events)
                released.add((core, 0, src))
                released.add((core, 1, dst))
            candidates: Set[_Entry] = set()
            for key in released:
                candidates.update(pending_by_port.get(key, ()))
            if candidates:
                attempt(candidates, t)
        return schedule

    # ------------------------------------------------------------------
    def _make_entries(self, demand_bytes: Mapping[Circuit, float]) -> List[_Entry]:
        """Demand entries (remaining in *bytes*) in consideration order.

        Delegates to the shared :func:`repro.core.sunflow.make_entries`
        packing helper (with this planner's byte-denominated epsilon), so
        K-core planning rides the same packed-demand and sorted-items
        fast paths as the single-switch scheduler instead of keeping its
        own copy of the ordering rules.
        """
        return make_entries(
            demand_bytes, self.order, self._rng, eps=self._byte_eps
        )

    def _reserve_first_fit(
        self,
        tables: CoreReservationTables,
        schedule: MultiCoreSchedule,
        entry: _Entry,
        t: float,
    ) -> Optional[Tuple[int, Reservation]]:
        """Try each core in index order; reserve on the first feasible one."""
        for core_index, core in enumerate(self.cores):
            prt = tables[core_index]
            if not (
                prt.input_free_at(entry.src, t) and prt.output_free_at(entry.dst, t)
            ):
                continue
            t_next = prt.next_reserved_time(entry.src, entry.dst, t)
            max_length = t_next - t
            setup = core.delta
            if max_length <= setup + TIME_EPS:
                continue
            need_seconds = processing_time(entry.remaining, core.bandwidth_bps)
            desired_length = setup + need_seconds
            if desired_length < max_length:
                length = desired_length
                end = t + length
                served = entry.remaining
            else:
                length = max_length
                end = t_next
                served = size_from_processing_time(
                    length - setup, core.bandwidth_bps
                )
            reservation = prt.reserve(
                entry.src,
                entry.dst,
                start=t,
                end=end,
                coflow_id=schedule.coflow_id,
                setup=setup,
            )
            schedule.reservations.append(CoreReservation(core_index, reservation))
            left = entry.remaining - served
            entry.remaining = left if left > 0.0 else 0.0
            return core_index, reservation
        return None


__all__ = [
    "SwitchCore",
    "uniform_cores",
    "build_cores",
    "MulticorePolicy",
    "MULTICORE_POLICIES",
    "DEFAULT_INTER_POLICY",
    "DEFAULT_INTRA_POLICY",
    "resolve_multicore_policy",
    "split_demand",
    "CoreLoadTracker",
    "CoreReservation",
    "MultiCoreSchedule",
    "MultiCoreSunflowScheduler",
]
