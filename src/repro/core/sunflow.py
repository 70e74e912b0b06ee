"""The Sunflow scheduling algorithm (paper §4, Algorithm 1).

Sunflow schedules optical circuits for Coflows under the not-all-stop
switch model.  Its two design rules:

* **intra-Coflow non-preemption** — once a circuit is reserved for a flow
  it is held until the reservation ends; in the single-Coflow case each
  flow needs exactly one setup, which is the minimum possible switching
  count;
* **inter-Coflow priority** — Coflows are scheduled one after another, in
  priority order, against the *same* Port Reservation Table.  A later
  (lower-priority) Coflow can only claim port time the earlier ones left
  free, so it can never block them.  Its reservations may be truncated to
  fit the free gaps (Algorithm 1 line 19), in which case the flow pays an
  extra ``δ`` to resume later — this is the only way a flow ever needs more
  than one setup.

The scheduler is an *offline* planner: given demands (expressed as
remaining processing time per circuit) and a start time, it fills a PRT.
The discrete-event simulators in :mod:`repro.sim` call it at every Coflow
arrival/completion to (re)plan, then execute the plan until the next event.

Implementation note — Algorithm 1 as printed rescans every remaining
demand entry at every circuit-release time, which is O(|C|²) with a large
constant.  This module implements an equivalent event-driven form: an
entry's feasibility (both ports free, gap ≥ δ) can only change when a
reservation on one of *its own* ports is released, so entries wait in
per-port pending sets and are re-attempted — in the same global
consideration order — exactly when one of their ports frees up.  The
literal pseudocode is kept as :func:`schedule_demand_reference` and the
test suite checks the two produce identical reservations.
"""

from __future__ import annotations

import bisect
import enum
import heapq
from array import array
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

# planner_backend and native_planner_available are re-exported: callers,
# the repository benchmark among them, probe them on this module.
from repro.backend import native_available as native_planner_available
from repro.backend import native_module, planner_backend
from repro.core.coflow import Coflow
from repro.core.demand import PackedDemand
from repro.core.prt import (
    PortReservationTable,
    Reservation,
    TIME_EPS,
)
from repro.units import DEFAULT_BANDWIDTH, DEFAULT_DELTA

_NAN = float("nan")


def _pack_entries(
    entries: "List[_Entry]",
    established: Mapping[Tuple[int, int], Tuple[float, Optional[float]]],
) -> List[Tuple[int, int, float, bool, float, float]]:
    """Flatten entries for the native kernel.

    One 6-tuple per entry, in consideration order (entry list position ==
    ``order_index``, an invariant of :meth:`SunflowScheduler._make_entries`):
    ``(src, dst, remaining, has_established, setup_left, anchor)`` with a
    NaN anchor encoding "no anchor" (reservation end times are never NaN).
    """
    if not established:
        return [(e.src, e.dst, e.remaining, False, 0.0, _NAN) for e in entries]
    packed = []
    get = established.get
    for e in entries:
        est = get((e.src, e.dst))
        if est is None:
            packed.append((e.src, e.dst, e.remaining, False, 0.0, _NAN))
        else:
            setup_left, anchor = est
            packed.append(
                (
                    e.src,
                    e.dst,
                    e.remaining,
                    True,
                    setup_left,
                    _NAN if anchor is None else anchor,
                )
            )
    return packed


def _pack_demand(
    demand_times: Mapping[Tuple[int, int], float],
    established: Mapping[Tuple[int, int], Tuple[float, Optional[float]]],
) -> List[Tuple[int, int, float, bool, float, float]]:
    """Fused ``_make_entries`` + ``_pack_entries`` for the native kernel's
    hot path (ORDERED_PORT order, no quantum): the sorted dict items *are*
    the consideration order, so the packed tuples are built straight from
    them without materializing ``_Entry`` objects first."""
    if established:
        get = established.get
        packed = []
        for (src, dst), p in sorted(demand_times.items()):
            if p > TIME_EPS:
                est = get((src, dst))
                if est is None:
                    packed.append((src, dst, p, False, 0.0, _NAN))
                else:
                    setup_left, anchor = est
                    packed.append(
                        (
                            src,
                            dst,
                            p,
                            True,
                            setup_left,
                            _NAN if anchor is None else anchor,
                        )
                    )
        return packed
    return [
        (src, dst, p, False, 0.0, _NAN)
        for (src, dst), p in sorted(demand_times.items())
        if p > TIME_EPS
    ]


#: Sort key for attempt batches; C-level attrgetter keeps the hot loop lean.
_ORDER_KEY = operator.attrgetter("order_index")


def _reservation_start(reservation: Reservation) -> float:
    return reservation.start


class ReservationOrder(enum.Enum):
    """Order in which Algorithm 1 considers the demand entries of a Coflow.

    Lemma 1 holds for *any* order; §5.3.1 measures the (tiny) performance
    difference between these three.
    """

    #: Sort by (src, dst) port label — the paper's default.
    ORDERED_PORT = "ordered_port"
    #: Uniformly random shuffle.
    RANDOM = "random"
    #: Largest remaining demand first.
    SORTED_DEMAND = "sorted_demand"


@dataclass
class CoflowSchedule:
    """The planned reservations for one Coflow.

    ``completion_time`` is absolute (same clock as the PRT); the Coflow
    Completion Time is ``completion_time - arrival_time``, computed by the
    caller which knows the arrival.
    """

    coflow_id: int
    start_time: float
    reservations: List[Reservation] = field(default_factory=list)

    @property
    def completion_time(self) -> float:
        if not self.reservations:
            return self.start_time
        return max(r.end for r in self.reservations)

    @property
    def num_setups(self) -> int:
        """Number of circuit establishments (reservations paying a setup)."""
        return sum(1 for r in self.reservations if r.setup > 0)

    def index_at_or_after(self, t: float) -> int:
        """First index whose reservation starts at/after ``t - TIME_EPS``.

        Reservations are appended in non-decreasing start order, so the
        list is bisectable; simulators use this to visit only the
        reservations overlapping an event window instead of scanning the
        whole plan.
        """
        return bisect.bisect_left(self.reservations, t - TIME_EPS, key=_reservation_start)

    def first_start(self) -> float:
        """Start of the earliest reservation (inf for an empty plan)."""
        return self.reservations[0].start if self.reservations else float("inf")

    @property
    def makespan(self) -> float:
        return self.completion_time - self.start_time


#: Circuits already configured for a Coflow at the schedule origin: either
#: a set (setup complete), a mapping ``circuit -> remaining setup seconds``,
#: or a mapping ``circuit -> (remaining setup, anchor end)`` where the
#: anchor is the absolute end time the circuit's continuation was already
#: planned to reach.  The anchor lets a replan reproduce the prior plan's
#: end *bitwise* (``now + (σ + remaining)`` re-associates floating point),
#: which the incremental simulator relies on to detect unchanged plans.
EstablishedCircuits = Union[
    FrozenSet[Tuple[int, int]],
    Set[Tuple[int, int]],
    Mapping[Tuple[int, int], float],
    Mapping[Tuple[int, int], Tuple[float, float]],
]


def _normalize_established(
    established: Optional[EstablishedCircuits],
) -> Dict[Tuple[int, int], Tuple[float, Optional[float]]]:
    """Normalize to ``{circuit: (remaining setup, anchor end or None)}``."""
    if not established:
        return {}
    if isinstance(established, Mapping):
        normalized: Dict[Tuple[int, int], Tuple[float, Optional[float]]] = {}
        for circuit, value in established.items():
            if isinstance(value, tuple):
                normalized[circuit] = (value[0], value[1])
            else:
                normalized[circuit] = (float(value), None)
        return normalized
    return {circuit: (0.0, None) for circuit in established}


class _Entry:
    """Mutable remaining demand for one circuit while scheduling.

    Identity-hashed (entries live in pending sets); ``__slots__`` because
    the inter-Coflow replay creates one per circuit per replan.

    ``blocked_key`` memoizes a proven fact about the last failed attempt:
    *which* port blocks this circuit.  The port stays covered until the
    blocking reservation ends and cannot release earlier (per-port
    reservations never overlap), so the entry waits in that one port's
    queue and is re-examined exactly when the port frees up.  Skipped
    attempts are exactly the ones that would have failed, so schedules are
    bit-identical with or without the memo.  ``blocked_key`` uses the
    scheduler's integer port-key encoding (input ``p`` → ``2p``, output
    ``p`` → ``2p + 1``).
    """

    __slots__ = ("src", "dst", "remaining", "order_index", "blocked_key")

    def __init__(self, src: int, dst: int, remaining: float, order_index: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.remaining = remaining
        self.order_index = order_index
        self.blocked_key = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Entry(src={self.src}, dst={self.dst}, "
            f"remaining={self.remaining}, order_index={self.order_index})"
        )


def make_entries(
    demand_times: Mapping[Tuple[int, int], float],
    order: ReservationOrder,
    rng: random.Random,
    *,
    eps: float = TIME_EPS,
    quantize: Optional[Callable[[float], float]] = None,
) -> List[_Entry]:
    """Demand entries in consideration order — the shared packing helper.

    Both the single-switch :class:`SunflowScheduler` and the K-core
    :class:`repro.core.multicore.MultiCoreSunflowScheduler` delegate here
    (the latter with its byte-denominated ``eps`` and no quantizer), so
    every planner rides the same fast paths:

    * ``ORDERED_PORT`` with no quantizer and a valid
      :class:`~repro.core.demand.PackedDemand` reads the pre-sorted
      packed columns — no per-plan sort at all;
    * ``ORDERED_PORT`` over a plain mapping sorts the raw dict items
      (unique ``(src, dst)`` keys ⇒ key-tuple comparison only);
    * the remaining orders build entries first, then sort (``RANDOM``
      shuffles the canonical order so rng streams stay reproducible).
    """
    if order is ReservationOrder.ORDERED_PORT and quantize is None:
        entries = []
        index = 0
        if isinstance(demand_times, PackedDemand) and demand_times.packed_ok:
            for src, dst, p in demand_times.iter_packed():
                if p > eps:
                    entry = _Entry(src, dst, p)
                    entry.order_index = index
                    index += 1
                    entries.append(entry)
            return entries
        for (src, dst), p in sorted(demand_times.items()):
            if p > eps:
                entry = _Entry(src, dst, p)
                entry.order_index = index
                index += 1
                entries.append(entry)
        return entries
    if quantize is None:
        entries = [
            _Entry(src, dst, p)
            for (src, dst), p in demand_times.items()
            if p > eps
        ]
    else:
        entries = [
            _Entry(src, dst, quantize(p))
            for (src, dst), p in demand_times.items()
            if p > eps
        ]
    if order is ReservationOrder.ORDERED_PORT:
        entries.sort(key=lambda e: (e.src, e.dst))
    elif order is ReservationOrder.RANDOM:
        entries.sort(key=lambda e: (e.src, e.dst))  # canonical base order
        rng.shuffle(entries)
    elif order is ReservationOrder.SORTED_DEMAND:
        entries.sort(key=lambda e: (-e.remaining, e.src, e.dst))
    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(f"unknown order {order!r}")
    for index, entry in enumerate(entries):
        entry.order_index = index
    return entries


class SunflowScheduler:
    """Plans circuit reservations per Algorithm 1.

    Args:
        delta: circuit reconfiguration delay ``δ`` in seconds.
        order: demand-consideration order (see :class:`ReservationOrder`).
        rng: random source for :attr:`ReservationOrder.RANDOM`; a fresh
            seeded generator is created if omitted, so runs are repeatable.
        quantum: optional approximation knob from §6 — demand processing
            times are rounded *up* to a multiple of ``quantum`` seconds
            before scheduling.  Rounded-up reservations end on a coarse
            grid, so many circuit-release events coincide and the
            scheduling loop runs fewer iterations, at the cost of some
            reserved-but-idle circuit time (the paper: "approximation …
            could reduce the optimality of the resulting schedules").
    """

    def __init__(
        self,
        delta: float = DEFAULT_DELTA,
        order: ReservationOrder = ReservationOrder.ORDERED_PORT,
        rng: Optional[random.Random] = None,
        quantum: Optional[float] = None,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta!r}")
        if quantum is not None and quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self.delta = delta
        self.order = order
        self.quantum = quantum
        self._rng = rng if rng is not None else random.Random(0)
        #: Optional :class:`~repro.perf.PerfCounters` sink for the
        #: ``plan.pack`` / ``plan.kernel`` sub-timers; the inter-Coflow
        #: simulator wires its own counters in here so the monolithic
        #: ``plan`` timer decomposes.  Left ``None``, timing is skipped.
        self.perf = None

    # ------------------------------------------------------------------
    # Intra-Coflow scheduling (Algorithm 1, IntraCoflow + MakeReservation)
    # ------------------------------------------------------------------
    def schedule_demand(
        self,
        prt: PortReservationTable,
        coflow_id: int,
        demand_times: Mapping[Tuple[int, int], float],
        start_time: float = 0.0,
        established: "EstablishedCircuits" = frozenset(),
    ) -> CoflowSchedule:
        """Reserve circuits on ``prt`` for one Coflow's remaining demand.

        Args:
            prt: shared Port Reservation Table; reservations made by
                higher-priority Coflows constrain (and are never violated
                by) this call.
            coflow_id: recorded on every reservation.
            demand_times: ``{(src, dst): remaining processing seconds}``.
                Zero/negative entries are ignored.
            start_time: scheduling clock origin ``t0`` (e.g. the Coflow's
                arrival, or "now" when replanning).
            established: circuits physically configured (or mid-setup) for
                *this Coflow's flows* at ``start_time``.  Either a set of
                circuits (setup fully complete) or a mapping ``circuit →
                remaining setup seconds``; a reservation starting exactly at
                ``start_time`` on such a circuit pays only the remaining
                setup instead of a full ``δ``.

        Returns:
            The reservations planned for this Coflow.
        """
        established = _normalize_established(established)
        schedule = CoflowSchedule(coflow_id=coflow_id, start_time=start_time)
        perf = self.perf
        native = native_module()
        if native is not None:
            # Compiled twin of ``_plan_python``: the same event loop with
            # verbatim float expressions, mutating the same PRT arrays in
            # place through the buffer protocol.
            fast = (
                self.order is ReservationOrder.ORDERED_PORT
                and self.quantum is None
            )
            if (
                fast
                and isinstance(demand_times, PackedDemand)
                and demand_times.packed_ok
            ):
                # Fused fast path: the Coflow's pre-sorted demand columns
                # go straight to C — filtering, established lookup, and
                # the event loop in one call, no per-plan sort or tuple
                # packing on the Python side.
                srcs, dsts, vals = demand_times.columns
                t0 = perf_counter()
                kept = native.schedule_demand_packed(
                    prt,
                    Reservation,
                    coflow_id,
                    start_time,
                    self.delta,
                    TIME_EPS,
                    srcs,
                    dsts,
                    vals,
                    established if established else None,
                    schedule.reservations,
                )
                if perf is not None:
                    perf.add_time("plan.kernel", perf_counter() - t0)
                if not kept:
                    return schedule
            else:
                t0 = perf_counter()
                if fast:
                    packed = _pack_demand(demand_times, established)
                else:
                    # RANDOM must still shuffle through ``_make_entries``
                    # so the rng stream advances exactly as in the Python
                    # loop.
                    packed = _pack_entries(
                        self._make_entries(demand_times), established
                    )
                if perf is not None:
                    perf.add_time("plan.pack", perf_counter() - t0)
                if not packed:
                    return schedule
                t0 = perf_counter()
                native.schedule_demand(
                    prt,
                    Reservation,
                    coflow_id,
                    start_time,
                    self.delta,
                    TIME_EPS,
                    bool(established),
                    packed,
                    schedule.reservations,
                )
                if perf is not None:
                    perf.add_time("plan.kernel", perf_counter() - t0)
        else:
            t0 = perf_counter()
            entries = self._make_entries(demand_times)
            if perf is not None:
                perf.add_time("plan.pack", perf_counter() - t0)
            if not entries:
                return schedule
            t0 = perf_counter()
            self._plan_python(
                prt,
                coflow_id,
                entries,
                start_time,
                established,
                schedule.reservations,
            )
            if perf is not None:
                perf.add_time("plan.kernel", perf_counter() - t0)
        return schedule

    def _plan_python(
        self,
        prt: PortReservationTable,
        coflow_id: int,
        entries: "List[_Entry]",
        start_time: float,
        established: Mapping[Tuple[int, int], Tuple[float, Optional[float]]],
        reservations: List[Reservation],
    ) -> None:
        """The event-driven scheduling loop (pure-Python backend).

        Fills ``prt`` and appends to ``reservations`` in place.  The
        compiled kernel (:mod:`repro._native`, selected by
        :mod:`repro.backend`) is this loop's bit-identical twin — any
        behavioral change here must be mirrored there, and the
        differential suites in ``tests/kernels/test_native_planner.py``
        compare the two reservation-for-reservation.
        """
        outstanding = len(entries)

        # Release events: the scheduling clock.  Seed with the ends of
        # pre-existing reservations (higher-priority Coflows, guard slices)
        # on the ports this Coflow actually uses — releases elsewhere cannot
        # change any entry's feasibility; new ends are pushed as we reserve.
        # Events carry the released circuit so the loop knows which port
        # queues to wake.
        used_inputs = {entry.src for entry in entries}
        used_outputs = {entry.dst for entry in entries}
        seeded: List[Tuple[float, int, int]] = []
        for port in used_inputs:
            seeded.extend(prt.release_events_for_input(port, start_time))
        for port in used_outputs:
            seeded.extend(prt.release_events_for_output(port, start_time))
        # A circuit touching both a used input and a used output is seeded
        # twice; dedupe so the event heap stays minimal.
        events: List[Tuple[float, int, int]] = list(set(seeded))
        heapq.heapify(events)

        # Blocked entries wait in per-port queues, sorted by consideration
        # order.  Port keys are ints — input ``p`` → ``2p``, output ``p`` →
        # ``2p + 1`` — which hash and compare faster than tuples in the hot
        # sets below.  An entry sits in the queue of the one port *proven*
        # to block it (``_Entry.blocked_key``) and is re-examined exactly
        # when that port releases; releases of its other port in between
        # are guaranteed-failure attempts in the reference implementation,
        # so skipping them cannot change the schedule (the ``TIME_EPS``
        # batch window below absorbs the case where both ports release
        # within tolerance of each other).
        waiting: Dict[int, List[_Entry]] = {}

        # The loop below is the hottest code in the repository: every
        # binding it touches per examination is a local.  ``examine`` is
        # ``_make_reservation`` inlined — the covering probes, the
        # ``_next_start`` pair behind ``next_reserved_time``, and the
        # journal insert all run against the PRT's raw per-port boundary
        # arrays (same package; the layout is the module contract of
        # :mod:`repro.core.prt`).  Float expressions are kept verbatim
        # from ``_make_reservation`` so the two produce bit-identical
        # reservations — the dense-demand fuzz tests compare them.
        in_bounds_map = prt._in_bounds
        in_refs_map = prt._in_refs
        out_bounds_map = prt._out_bounds
        out_refs_map = prt._out_refs
        journal = prt._reservations
        ends = prt._ends
        release_of_block = prt.release_of_block
        eps = TIME_EPS
        br = bisect.bisect_right
        heappush = heapq.heappush
        insort = bisect.insort
        delta = self.delta
        inf = float("inf")
        make_array = array
        wget = waiting.get
        res_new = Reservation.__new__
        res_cls = Reservation

        def enqueue(entry: _Entry) -> None:
            """File an entry under the port recorded in ``blocked_key``."""
            bucket = waiting.get(entry.blocked_key)
            if bucket is None:
                waiting[entry.blocked_key] = [entry]
            elif bucket[-1].order_index < entry.order_index:
                bucket.append(entry)
            else:
                insort(bucket, entry, key=_ORDER_KEY)

        def reattach(key: int, suffix: List[_Entry]) -> None:
            """Put an unexamined (still sorted) queue suffix back to wait."""
            bucket = waiting.get(key)
            if bucket is None:
                waiting[key] = suffix
            else:
                # Entries moved onto this port during the same batch; both
                # runs are sorted, so Timsort's galloping merge combines
                # them in O(n) C-level key calls (order indices are unique
                # within a plan, so stability never matters).
                suffix.extend(bucket)
                suffix.sort(key=_ORDER_KEY)
                waiting[key] = suffix

        def examine(
            entry: _Entry, t: float, taken: Set[int], origin: bool
        ) -> None:
            """Attempt one entry whose ports are not yet taken this batch
            (``_make_reservation`` plus ``PortReservationTable._insert``,
            inlined).

            Each covering probe's bisect index is reused twice over: with
            the port free at ``t`` it already points at the port's next
            reserved start (no boundary lies in ``(t - eps, t + eps]``
            except possibly a prior end, which the probe skipped past — a
            start there would have flipped the parity), and it equals the
            boundary insertion point ``_insert`` would recompute.  A
            placement therefore costs two bisects total.  The overlap
            check is skipped outright: ``[t, end)`` is proven to sit
            inside a free gap on both ports (``end <= t_next`` up to the
            tolerated ``eps`` anchor snap), which is exactly the condition
            ``_insert`` re-verifies."""
            nonlocal outstanding
            src = entry.src
            dst = entry.dst
            teps = t + eps
            # Covering probes: one bisect over raw boundary doubles; odd
            # parity means the port is taken and the entry waits it out.
            ib = in_bounds_map.get(src)
            if ib:
                ki = br(ib, teps)
                if ki & 1:
                    entry.blocked_key = key = src * 2
                    bucket = wget(key)
                    if bucket is None:
                        waiting[key] = [entry]
                    elif bucket[-1].order_index < entry.order_index:
                        bucket.append(entry)
                    else:
                        insort(bucket, entry, key=_ORDER_KEY)
                    return
            else:
                ki = 0
            ob = out_bounds_map.get(dst)
            if ob:
                ko = br(ob, teps)
                if ko & 1:
                    entry.blocked_key = key = dst * 2 + 1
                    bucket = wget(key)
                    if bucket is None:
                        waiting[key] = [entry]
                    elif bucket[-1].order_index < entry.order_index:
                        bucket.append(entry)
                    else:
                        insort(bucket, entry, key=_ORDER_KEY)
                    return
            else:
                ko = 0
            # Both ports free: the usable gap runs to the next reserved
            # start on either port (``next_reserved_time``, answered by
            # the probe indices).
            t_next = inf
            if ib and ki < len(ib):
                t_next = ib[ki]
            if ob and ko < len(ob) and ob[ko] < t_next:
                t_next = ob[ko]
            anchor = None
            # ``origin`` is the per-batch precomputation of
            # ``established and abs(t - start_time) <= eps`` — every
            # examination in a batch shares ``t``, so hoisting the float
            # compare out of the hot path cannot change the outcome.
            if origin and (src, dst) in established:
                setup_left, anchor = established[(src, dst)]
                setup = setup_left if setup_left < delta else delta
            else:
                setup = delta
            max_length = t_next - t
            if max_length <= setup + eps:
                # Gap cannot fit even the reconfiguration (Algorithm 1
                # line 19): infeasible until the blocker releases.
                _, on_input = release_of_block(src, dst, t, t_next)
                entry.blocked_key = key = src * 2 if on_input else dst * 2 + 1
                bucket = wget(key)
                if bucket is None:
                    waiting[key] = [entry]
                elif bucket[-1].order_index < entry.order_index:
                    bucket.append(entry)
                else:
                    insort(bucket, entry, key=_ORDER_KEY)
                return
            desired_length = setup + entry.remaining
            if desired_length < max_length:
                length = desired_length
                end = t + length
                if anchor is not None and abs(end - anchor) <= eps:
                    end = anchor
            else:
                length = max_length
                end = t_next
            # Direct slot stores instead of the dataclass constructor: the
            # gap check above already proved what ``__post_init__`` would
            # re-verify (``end > t`` and ``setup`` within the length, both
            # by ``max_length > setup + eps``).
            reservation = res_new(res_cls)
            reservation.start = t
            reservation.end = end
            reservation.src = src
            reservation.dst = dst
            reservation.coflow_id = coflow_id
            reservation.setup = setup
            idx = len(journal)
            if ib is None:
                ib = in_bounds_map[src] = make_array("d")
                in_refs = in_refs_map[src] = make_array("q")
            else:
                in_refs = in_refs_map[src]
            ib.insert(ki, end)
            ib.insert(ki, t)
            in_refs.insert(ki >> 1, idx)
            if ob is None:
                ob = out_bounds_map[dst] = make_array("d")
                out_refs = out_refs_map[dst] = make_array("q")
            else:
                out_refs = out_refs_map[dst]
            ob.insert(ko, end)
            ob.insert(ko, t)
            out_refs.insert(ko >> 1, idx)
            ends.append(end)
            prt._ends_sorted = None
            journal.append(reservation)
            reservations.append(reservation)
            taken.add(src * 2)
            taken.add(dst * 2 + 1)
            heappush(events, (end, src, dst))
            left = desired_length - length
            entry.remaining = left
            if left <= eps:
                outstanding -= 1
            else:
                # Truncated: the entry's own reservation covers its
                # ports until it ends — wait out its own input port.
                entry.blocked_key = key = src * 2
                bucket = wget(key)
                if bucket is None:
                    waiting[key] = [entry]
                elif bucket[-1].order_index < entry.order_index:
                    bucket.append(entry)
                else:
                    insort(bucket, entry, key=_ORDER_KEY)

        # First pass: every entry, in consideration order, at the origin.
        taken: Set[int] = set()
        has_established = bool(established)
        origin = has_established
        for entry in entries:
            key = entry.src * 2
            if key in taken:
                entry.blocked_key = key
                enqueue(entry)
                continue
            key = entry.dst * 2 + 1
            if key in taken:
                entry.blocked_key = key
                enqueue(entry)
                continue
            examine(entry, start_time, taken, origin)

        heappop = heapq.heappop
        wpop = waiting.pop
        while outstanding > 0:
            if not events:
                raise RuntimeError(
                    f"coflow {coflow_id}: demand left but no future release"
                )
            t, esrc, edst = heappop(events)
            horizon = t + eps
            origin = has_established and abs(t - start_time) <= eps
            if events and events[0][0] <= horizon:
                # Several circuits release within tolerance: collect the
                # whole batch of freed port keys.
                released: Set[int] = {esrc * 2, edst * 2 + 1}
                while events and events[0][0] <= horizon:
                    _, src, dst = heappop(events)
                    released.add(src * 2)
                    released.add(dst * 2 + 1)
                queues: List[Tuple[int, List[_Entry]]] = []
                for key in released:
                    bucket = wpop(key, None)
                    if bucket:
                        queues.append((key, bucket))
                if not queues:
                    continue
            else:
                # Fast path (the common case): exactly one circuit
                # released, so at most its two port queues wake up — no
                # batch set needed.  Buckets in ``waiting`` are never
                # empty, so popping suffices.
                q1 = wpop(esrc * 2, None)
                q2 = wpop(edst * 2 + 1, None)
                if q1 is None:
                    if q2 is None:
                        continue
                    queues = [(edst * 2 + 1, q2)]
                elif q2 is None:
                    queues = [(esrc * 2, q1)]
                else:
                    queues = [(esrc * 2, q1), (edst * 2 + 1, q2)]
            taken = set()
            if len(queues) == 1:
                # Fast path: one port queue woke up.  Examine entries in
                # order until the port is taken again; the untouched suffix
                # is provably blocked until the new reservation ends, so it
                # goes back to waiting wholesale.
                key, queue = queues[0]
                size = len(queue)
                i = 0
                while i < size and key not in taken:
                    entry = queue[i]
                    i += 1
                    other = entry.dst * 2 + 1 if key & 1 == 0 else entry.src * 2
                    if other in taken:
                        entry.blocked_key = other
                        enqueue(entry)
                    else:
                        examine(entry, t, taken, origin)
                if i < size:
                    reattach(key, queue[i:] if i else queue)
            else:
                # Several ports released within tolerance: interleave their
                # queues so entries are still examined in global
                # consideration order.
                ptrs = [0] * len(queues)
                heads = [
                    (queue[0].order_index, j)
                    for j, (_, queue) in enumerate(queues)
                ]
                heapq.heapify(heads)
                while heads:
                    _, j = heappop(heads)
                    key, queue = queues[j]
                    i = ptrs[j]
                    if key in taken:
                        # Port re-taken this batch: the rest of this queue
                        # is provably blocked; leave it parked wholesale.
                        reattach(key, queue[i:] if i else queue)
                        continue
                    entry = queue[i]
                    i += 1
                    ptrs[j] = i
                    if i < len(queue):
                        heappush(heads, (queue[i].order_index, j))
                    other = entry.dst * 2 + 1 if key & 1 == 0 else entry.src * 2
                    if other in taken:
                        entry.blocked_key = other
                        enqueue(entry)
                    else:
                        examine(entry, t, taken, origin)

    def schedule_coflow(
        self,
        coflow: Coflow,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        prt: Optional[PortReservationTable] = None,
        start_time: Optional[float] = None,
    ) -> CoflowSchedule:
        """Convenience wrapper: schedule a whole :class:`Coflow` from scratch.

        Uses the Coflow's arrival time as the schedule origin unless
        ``start_time`` is given, and a fresh PRT unless one is supplied.
        """
        if prt is None:
            prt = PortReservationTable()
        origin = coflow.arrival_time if start_time is None else start_time
        return self.schedule_demand(
            prt,
            coflow.coflow_id,
            coflow.processing_times(bandwidth_bps),
            start_time=origin,
        )

    # ------------------------------------------------------------------
    # Inter-Coflow scheduling (Algorithm 1, InterCoflow)
    # ------------------------------------------------------------------
    def schedule_many(
        self,
        demands: Sequence[Tuple[int, Mapping[Tuple[int, int], float]]],
        start_time: float = 0.0,
        prt: Optional[PortReservationTable] = None,
        established: Optional[Mapping[int, "EstablishedCircuits"]] = None,
    ) -> Tuple[PortReservationTable, Dict[int, CoflowSchedule]]:
        """Schedule several Coflows, highest priority first, on one PRT.

        Args:
            demands: ``(coflow_id, demand_times)`` pairs in priority order.
            start_time: common scheduling origin.
            prt: table to fill (fresh one by default).
            established: per-Coflow pre-configured circuits (see
                :meth:`schedule_demand`).

        Returns:
            The filled PRT and a per-Coflow schedule map.
        """
        if prt is None:
            prt = PortReservationTable()
        if established is None:
            established = {}
        schedules: Dict[int, CoflowSchedule] = {}
        for coflow_id, demand_times in demands:
            schedules[coflow_id] = self.schedule_demand(
                prt,
                coflow_id,
                demand_times,
                start_time=start_time,
                established=established.get(coflow_id, frozenset()),
            )
        return prt, schedules

    def schedule_coflows(
        self,
        coflows: Iterable[Coflow],
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        start_time: float = 0.0,
    ) -> Tuple[PortReservationTable, Dict[int, CoflowSchedule]]:
        """Schedule whole Coflows (already in priority order) from scratch."""
        demands = [
            (c.coflow_id, c.processing_times(bandwidth_bps)) for c in coflows
        ]
        return self.schedule_many(demands, start_time=start_time)

    # ------------------------------------------------------------------
    # Reference implementation (literal Algorithm 1; used by tests)
    # ------------------------------------------------------------------
    def schedule_demand_reference(
        self,
        prt: PortReservationTable,
        coflow_id: int,
        demand_times: Mapping[Tuple[int, int], float],
        start_time: float = 0.0,
        established: "EstablishedCircuits" = frozenset(),
    ) -> CoflowSchedule:
        """Literal transcription of Algorithm 1 (quadratic rescan loop).

        Produces the same reservations as :meth:`schedule_demand`; kept for
        validation and as executable documentation of the pseudocode.
        """
        established = _normalize_established(established)
        entries = self._make_entries(demand_times)
        schedule = CoflowSchedule(coflow_id=coflow_id, start_time=start_time)
        t = start_time
        while entries:
            for entry in entries:
                entry.remaining = self._make_reservation(
                    prt, schedule, entry, t, start_time, established
                )
            entries = [e for e in entries if e.remaining > TIME_EPS]
            if not entries:
                break
            next_t = prt.next_release_after(t)
            if next_t is None:
                raise RuntimeError(
                    f"coflow {coflow_id}: demand left but no future release"
                )
            t = next_t
        return schedule

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _quantize(self, seconds: float) -> float:
        """Round a processing time up to the §6 approximation grid."""
        if self.quantum is None:
            return seconds
        return math.ceil(seconds / self.quantum - TIME_EPS) * self.quantum

    def _make_entries(
        self, demand_times: Mapping[Tuple[int, int], float]
    ) -> List[_Entry]:
        return make_entries(
            demand_times,
            self.order,
            self._rng,
            quantize=None if self.quantum is None else self._quantize,
        )

    def _make_reservation(
        self,
        prt: PortReservationTable,
        schedule: CoflowSchedule,
        entry: _Entry,
        t: float,
        start_time: float,
        established: Mapping[Tuple[int, int], Tuple[float, Optional[float]]],
    ) -> float:
        """Algorithm 1, MakeReservation: try to reserve for one entry at ``t``.

        Returns the remaining processing time after the reservation (the
        unchanged remaining time if no reservation could be made).
        """
        # Scalar covering probes: one bisect over raw boundary doubles, no
        # Reservation materialized.  A covered port stays covered until the
        # blocking reservation ends; any attempt strictly before that is
        # guaranteed to land here again, so the entry waits out that port.
        if prt.input_covering_end(entry.src, t) is not None:
            entry.blocked_key = entry.src * 2
            return entry.remaining
        if prt.output_covering_end(entry.dst, t) is not None:
            entry.blocked_key = entry.dst * 2 + 1
            return entry.remaining

        # A circuit already configured (or mid-setup) for this flow at the
        # schedule origin only pays its remaining setup if we keep using it
        # from that same instant.
        anchor: Optional[float] = None
        reuse = (
            abs(t - start_time) <= TIME_EPS
            and (entry.src, entry.dst) in established
        )
        if reuse:
            setup_left, anchor = established[(entry.src, entry.dst)]
            setup = min(self.delta, setup_left)
        else:
            setup = self.delta

        t_next = prt.next_reserved_time(entry.src, entry.dst, t)
        max_length = t_next - t
        desired_length = setup + entry.remaining
        if max_length <= setup + TIME_EPS:
            # The gap cannot fit even the reconfiguration: reserving would
            # transmit nothing, so skip (Algorithm 1 line 19, lm < δ).
            # The gap only shrinks as t advances toward ``t_next``, and the
            # blocking reservation then covers the port until it ends — so
            # no attempt before that end can succeed either.
            _, on_input = prt.release_of_block(entry.src, entry.dst, t, t_next)
            entry.blocked_key = entry.src * 2 if on_input else entry.dst * 2 + 1
            return entry.remaining
        if desired_length < max_length:
            length = desired_length
            end = t + length
            if anchor is not None and abs(end - anchor) <= TIME_EPS:
                # An uninterrupted continuation of an already-planned
                # circuit: land on the previously planned end exactly, so
                # replanning the same state reproduces the same
                # reservation bit-for-bit instead of drifting by float
                # re-association.
                end = anchor
        else:
            # Truncated (or exactly fitting) reservation: land exactly on
            # the blocking reservation's start — ``t + (t_next - t)`` can
            # drift from ``t_next`` by an ulp, and downstream plans key on
            # these endpoints bitwise.
            length = max_length
            end = t_next
        reservation = prt.reserve(
            entry.src,
            entry.dst,
            start=t,
            end=end,
            coflow_id=schedule.coflow_id,
            setup=setup,
        )
        schedule.reservations.append(reservation)
        return desired_length - length
