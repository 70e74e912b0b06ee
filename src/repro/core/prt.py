"""Port Reservation Table (paper §4.1.1).

The PRT is the data structure at the heart of Sunflow.  It records, for
every input and output port of the optical circuit switch, the time
intervals during which the port is taken by a circuit.  A circuit
``[in.i, out.j]`` is scheduled by making a *reservation* on both ports for
the same interval; the first ``setup`` seconds of a reservation model the
circuit reconfiguration delay ``δ`` (no data moves), the remainder
transmits at full link rate.

Reservations are half-open intervals ``[start, end)``: a reservation ending
at ``t`` frees its ports at exactly ``t``, and a new reservation may begin
at ``t``.  The table enforces the port constraint of §2.1 — an input
(output) port carries at most one circuit at any instant — by refusing
overlapping reservations.

Storage layout
--------------

Each port timeline is a struct-of-arrays, not a list of objects: an
``array('d')`` of interleaved boundaries ``[s0, e0, s1, e1, ...]`` plus an
``array('q')`` of indices into the insertion-order journal.  Per-port
reservations never overlap, so the boundary array is sorted and one bisect
answers every hot query — "is the port covered at ``t``?" is a single
``bisect_right`` whose *parity* is the answer (odd ⇒ inside an interval).
The hot queries (:meth:`input_covering_end`, :meth:`next_reserved_time`,
:meth:`release_of_block`, :meth:`release_events_for_input`) therefore
compare raw doubles without touching a :class:`Reservation`;  full objects
are materialized from the journal only for the plan-facing API
(:meth:`reserve` returns the object recorded in a Coflow's plan,
:meth:`reservations_for_input` and friends rebuild views on demand).

The pre-array implementation is retained as
:class:`repro.core.prt_reference.ReferencePortReservationTable` and the
two are differentially fuzzed against each other.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backend import native_available as native_transactions_available
from repro.backend import native_module

#: Tolerance for floating-point time comparisons throughout the scheduler.
TIME_EPS = 1e-9

#: Version of the storage layout documented above, as consumed by the
#: optional compiled planner (``src/repro/_native.c`` reads the per-port
#: ``array('d')``/``array('q')`` buffers directly through the buffer
#: protocol).  Bump this whenever the struct-of-arrays contract changes —
#: boundary interleaving, typecodes, the ``__slots__`` names, or the
#: journal/``_ends``/``_ends_sorted`` bookkeeping — so a stale extension
#: build is refused (:mod:`repro.backend` treats it as absent and the
#: pure-Python twins run) instead of corrupting tables.
PRT_LAYOUT_VERSION = 1

@dataclass(slots=True, unsafe_hash=True)
class Reservation:
    """One circuit held on ``[start, end)`` between ``src`` and ``dst``.

    Treat instances as immutable: reservations are shared between the
    journal and plan layers, and are hashed/compared by value.  (The
    class is not ``frozen`` because frozen-dataclass ``__init__`` pays an
    ``object.__setattr__`` call per field, and the schedulers construct
    hundreds of thousands of these on the replay hot path.)

    Attributes:
        start: when the ports become taken (reconfiguration begins).
        end: when the ports are released.
        src: input port index.
        dst: output port index.
        coflow_id: the Coflow whose flow this circuit serves.
        setup: leading seconds spent reconfiguring; data flows only during
            ``[start + setup, end)``.
    """

    start: float
    end: float
    src: int
    dst: int
    coflow_id: int
    setup: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty reservation [{self.start}, {self.end})")
        if self.setup < 0 or self.setup > (self.end - self.start) + TIME_EPS:
            raise ValueError(
                f"setup {self.setup} outside reservation of length {self.end - self.start}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def transmit_start(self) -> float:
        """First instant at which data moves on this circuit."""
        return self.start + self.setup

    @property
    def transmit_duration(self) -> float:
        return max(0.0, self.end - self.transmit_start)

    def transmitted_before(self, t: float) -> float:
        """Seconds of transmission completed strictly before time ``t``."""
        return max(0.0, min(t, self.end) - self.transmit_start)

    @property
    def circuit(self) -> Tuple[int, int]:
        return (self.src, self.dst)


class PortConflictError(ValueError):
    """Raised when a reservation would overlap an existing one on a port."""


class PortReservationTable:
    """Reservation timelines for every input and output port.

    The table is write-once per interval: Sunflow never preempts an existing
    reservation, so reservations only accumulate.  Lookups the scheduler
    needs — "is this port free at ``t``?", "when is the next reservation on
    this port after ``t``?", "when is the next circuit release anywhere?" —
    are all O(log n) bisects over per-port boundary arrays (see the module
    docstring for the layout).

    The table additionally supports *checkpoint/rollback*: reservations are
    journalled in insertion order, so any suffix of the insertion history
    can be undone in O(k log n) for k undone reservations.  The incremental
    inter-Coflow replanner uses this to keep the reservations of
    higher-priority Coflows in place while re-planning only the dirty
    suffix of the priority order.  The global release-time column is kept
    in journal order (append on insert, slice-truncate on rollback) and
    sorted lazily only when :meth:`next_release_after` needs it.
    """

    __slots__ = (
        "_in_bounds",
        "_in_refs",
        "_out_bounds",
        "_out_refs",
        "_ends",
        "_ends_sorted",
        "_reservations",
    )

    def __init__(self) -> None:
        self._in_bounds: Dict[int, array] = {}
        self._in_refs: Dict[int, array] = {}
        self._out_bounds: Dict[int, array] = {}
        self._out_refs: Dict[int, array] = {}
        #: Reservation end times in *journal* order (not sorted).
        self._ends: array = array("d")
        #: Lazily rebuilt sorted copy of ``_ends`` (None when stale).
        self._ends_sorted: Optional[array] = None
        self._reservations: List[Reservation] = []

    def clear(self) -> None:
        """Drop every reservation (and the journal) in place.

        The incremental replanner compacts with this when everything left
        in the table lies entirely in the past: such reservations cannot
        cover, block, or release anything from ``now`` on, so the table is
        semantically empty — clearing keeps per-port arrays from growing
        with the age of the simulation.
        """
        self._in_bounds.clear()
        self._in_refs.clear()
        self._out_bounds.clear()
        self._out_refs.clear()
        del self._ends[:]
        self._ends_sorted = None
        self._reservations.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._reservations)

    def __iter__(self) -> Iterator[Reservation]:
        return iter(self._reservations)

    _EMPTY: Tuple[Reservation, ...] = ()

    def _port_view(self, refs: Optional[array]) -> Sequence[Reservation]:
        if not refs:
            return self._EMPTY
        journal = self._reservations
        return tuple(journal[i] for i in refs)

    def reservations_for_input(self, port: int) -> Sequence[Reservation]:
        """Reservations on input ``port``, sorted by start.

        Materialized from the journal on demand (a fresh tuple per call):
        cheap enough for analysis/validation paths, but not for hot loops —
        those use the scalar queries below.
        """
        return self._port_view(self._in_refs.get(port))

    def reservations_for_output(self, port: int) -> Sequence[Reservation]:
        """Reservations on output ``port``, sorted by start (materialized)."""
        return self._port_view(self._out_refs.get(port))

    def _releases_after(
        self, bounds: Optional[array], refs: Optional[array], t: float
    ) -> Iterator[Reservation]:
        """Reservations on one port whose end lies after ``t``.

        One bisect lands directly on the first candidate: per-port
        reservations are non-overlapping, so sorted-by-start is also
        sorted-by-end, and ``bisect_right`` over the interleaved boundary
        array already skips the released prefix — no clamp, no linear scan.
        """
        if not bounds:
            return
        journal = self._reservations
        for i in refs[bisect_right(bounds, t + TIME_EPS) >> 1 :]:
            yield journal[i]

    def input_releases_after(self, port: int, t: float) -> Iterator[Reservation]:
        return self._releases_after(
            self._in_bounds.get(port), self._in_refs.get(port), t
        )

    def output_releases_after(self, port: int, t: float) -> Iterator[Reservation]:
        return self._releases_after(
            self._out_bounds.get(port), self._out_refs.get(port), t
        )

    def release_events_for_input(
        self, port: int, t: float
    ) -> List[Tuple[float, int, int]]:
        """``(end, src, dst)`` for input-port reservations ending after ``t``.

        The scalar twin of :meth:`input_releases_after`, shaped for the
        scheduler's release-event heap: ends come straight from the
        boundary array and only the peer port is read off the journal.
        """
        bounds = self._in_bounds.get(port)
        if not bounds:
            return []
        k = bisect_right(bounds, t + TIME_EPS) >> 1
        journal = self._reservations
        refs = self._in_refs[port]
        return [
            (end, port, journal[i].dst)
            for end, i in zip(bounds[2 * k + 1 :: 2], refs[k:])
        ]

    def release_events_for_output(
        self, port: int, t: float
    ) -> List[Tuple[float, int, int]]:
        """``(end, src, dst)`` for output-port reservations ending after ``t``."""
        bounds = self._out_bounds.get(port)
        if not bounds:
            return []
        k = bisect_right(bounds, t + TIME_EPS) >> 1
        journal = self._reservations
        refs = self._out_refs[port]
        return [
            (end, journal[i].src, port)
            for end, i in zip(bounds[2 * k + 1 :: 2], refs[k:])
        ]

    @staticmethod
    def _release_in(bounds: Optional[array], t0: float, t1: float) -> bool:
        """True when any reservation on the port ends in ``(t0, t1]``.

        Parity over the interleaved boundary array: ends sit at odd
        indices, so the window ``(t0 + eps, t1 + eps]`` contains one as
        soon as it spans two boundaries or opens on an odd index.
        """
        if not bounds:
            return False
        i = bisect_right(bounds, t0 + TIME_EPS)
        j = bisect_right(bounds, t1 + TIME_EPS)
        if i == j:
            return False
        return (j - i) > 1 or (i & 1) == 1

    def input_release_in(self, port: int, t0: float, t1: float) -> bool:
        """Any reservation end on input ``port`` within ``(t0, t1]``?"""
        return self._release_in(self._in_bounds.get(port), t0, t1)

    def output_release_in(self, port: int, t0: float, t1: float) -> bool:
        """Any reservation end on output ``port`` within ``(t0, t1]``?"""
        return self._release_in(self._out_bounds.get(port), t0, t1)

    def input_covering_end(self, port: int, t: float) -> Optional[float]:
        """End of the reservation covering ``t`` on input ``port``, if any.

        The single hottest query in ``schedule_demand``: one bisect over
        the boundary array; odd parity means ``t`` lies inside an interval
        and the boundary at the insertion point is its end.
        """
        bounds = self._in_bounds.get(port)
        if not bounds:
            return None
        i = bisect_right(bounds, t + TIME_EPS)
        if i & 1:
            return bounds[i]
        return None

    def output_covering_end(self, port: int, t: float) -> Optional[float]:
        """End of the reservation covering ``t`` on output ``port``, if any."""
        bounds = self._out_bounds.get(port)
        if not bounds:
            return None
        i = bisect_right(bounds, t + TIME_EPS)
        if i & 1:
            return bounds[i]
        return None

    def _covering(
        self,
        bounds: Optional[array],
        refs: Optional[array],
        t: float,
    ) -> Optional[Reservation]:
        if not bounds:
            return None
        i = bisect_right(bounds, t + TIME_EPS)
        if i & 1:
            return self._reservations[refs[i >> 1]]
        return None

    def input_reservation_at(self, port: int, t: float) -> Optional[Reservation]:
        """The reservation covering ``t`` on input port ``port``, if any."""
        return self._covering(self._in_bounds.get(port), self._in_refs.get(port), t)

    def output_reservation_at(self, port: int, t: float) -> Optional[Reservation]:
        """The reservation covering ``t`` on output port ``port``, if any."""
        return self._covering(self._out_bounds.get(port), self._out_refs.get(port), t)

    def input_free_at(self, port: int, t: float) -> bool:
        return self.input_covering_end(port, t) is None

    def output_free_at(self, port: int, t: float) -> bool:
        return self.output_covering_end(port, t) is None

    @staticmethod
    def _next_start(bounds: Optional[array], t: float) -> float:
        """Earliest reservation start at or after ``t`` (inf if none).

        ``bisect_left`` at ``t - eps``: a start within eps *before* ``t``
        still counts as "next" so a zero-length gap is never mistaken for
        usable port time.  Odd parity means the insertion point fell on an
        interval *end*, in which case the next start is the boundary after
        it.
        """
        if not bounds:
            return float("inf")
        i = bisect_left(bounds, t - TIME_EPS)
        if i & 1:
            i += 1
        if i < len(bounds):
            return bounds[i]
        return float("inf")

    def next_reserved_time(self, src: int, dst: int, t: float) -> float:
        """``t_m`` of Algorithm 1 line 16: earliest upcoming reservation start
        on either ``in.src`` or ``out.dst``, at or after ``t`` (inf if none)."""
        next_in = self._next_start(self._in_bounds.get(src), t)
        next_out = self._next_start(self._out_bounds.get(dst), t)
        return min(next_in, next_out)

    def release_of_block(
        self, src: int, dst: int, t: float, t_next: float
    ) -> Tuple[float, bool]:
        """Earliest end among the reservations starting at ``t_next``.

        Companion to :meth:`next_reserved_time`: when the free gap
        ``[t, t_next)`` is too small to fit a setup, the circuit stays
        infeasible until the blocking reservation releases its port.  The
        minimum end over both ports' ``t_next``-starting reservations is a
        proven lower bound on when that can change.

        Returns ``(end, on_input)`` — the bound and whether the
        earliest-releasing blocker sits on the input port (so the caller
        knows which port's release to wait for).  ``(inf, True)`` if
        neither port has a blocker, which cannot happen when ``t_next``
        came from :meth:`next_reserved_time` with a finite value.
        """
        end = float("inf")
        on_input = True
        tol = t - TIME_EPS
        start_tol = t_next + TIME_EPS
        bounds = self._in_bounds.get(src)
        if bounds:
            i = bisect_left(bounds, tol)
            if i & 1:
                i += 1
            if i < len(bounds) and bounds[i] <= start_tol:
                end = bounds[i + 1]
                on_input = True
        bounds = self._out_bounds.get(dst)
        if bounds:
            i = bisect_left(bounds, tol)
            if i & 1:
                i += 1
            if i < len(bounds) and bounds[i] <= start_tol:
                candidate = bounds[i + 1]
                if candidate < end:
                    end = candidate
                    on_input = False
        return end, on_input

    def next_release_after(self, t: float) -> Optional[float]:
        """Earliest reservation end strictly after ``t`` across all ports.

        Algorithm 1 line 10 advances the scheduling clock to this instant.
        Sorts the journal-order end column lazily (the event-driven
        scheduler never calls this; the literal Algorithm 1 transcription
        and the analysis paths do).
        """
        ends_sorted = self._ends_sorted
        if ends_sorted is None:
            ends_sorted = self._ends_sorted = array("d", sorted(self._ends))
        idx = bisect_right(ends_sorted, t + TIME_EPS)
        if idx < len(ends_sorted):
            return ends_sorted[idx]
        return None

    def makespan(self) -> float:
        """Latest reservation end in the table (0 when empty)."""
        ends = self._ends
        if not ends:
            return 0.0
        return max(ends)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(
        self,
        src: int,
        dst: int,
        start: float,
        end: float,
        coflow_id: int,
        setup: float,
    ) -> Reservation:
        """Reserve circuit ``[in.src, out.dst]`` on ``[start, end)``.

        Raises:
            PortConflictError: if either port is already taken anywhere in
                the interval (Sunflow never preempts).
        """
        reservation = Reservation(
            start=start, end=end, src=src, dst=dst, coflow_id=coflow_id, setup=setup
        )
        self._insert(reservation)
        return reservation

    def _insert(self, reservation: Reservation) -> None:
        """Insert with overlap checks; one bisect per port, reused for both
        the check and the insertion point (this is the hottest PRT write).

        The insertion point among the interleaved boundaries maps to a
        reservation slot as ``j = (k + 1) >> 1``; the would-be neighbors'
        end (``bounds[2j - 1]``) and start (``bounds[2j]``) are then raw
        doubles, so the overlap check never materializes an object.
        """
        start = reservation.start
        end = reservation.end
        in_bounds = self._in_bounds.get(reservation.src)
        if in_bounds is None:
            in_bounds = self._in_bounds[reservation.src] = array("d")
            in_refs = self._in_refs[reservation.src] = array("q")
        else:
            in_refs = self._in_refs[reservation.src]
        out_bounds = self._out_bounds.get(reservation.dst)
        if out_bounds is None:
            out_bounds = self._out_bounds[reservation.dst] = array("d")
            out_refs = self._out_refs[reservation.dst] = array("q")
        else:
            out_refs = self._out_refs[reservation.dst]

        start_tol = start + TIME_EPS
        end_tol = end - TIME_EPS
        j_in = (bisect_left(in_bounds, start) + 1) >> 1
        k_in = 2 * j_in
        if (k_in and in_bounds[k_in - 1] > start_tol) or (
            k_in < len(in_bounds) and in_bounds[k_in] < end_tol
        ):
            self._raise_conflict(reservation, in_refs, j_in, k_in, len(in_bounds))
        j_out = (bisect_left(out_bounds, start) + 1) >> 1
        k_out = 2 * j_out
        if (k_out and out_bounds[k_out - 1] > start_tol) or (
            k_out < len(out_bounds) and out_bounds[k_out] < end_tol
        ):
            self._raise_conflict(reservation, out_refs, j_out, k_out, len(out_bounds))

        idx = len(self._reservations)
        in_bounds.insert(k_in, end)
        in_bounds.insert(k_in, start)
        in_refs.insert(j_in, idx)
        out_bounds.insert(k_out, end)
        out_bounds.insert(k_out, start)
        out_refs.insert(j_out, idx)
        self._ends.append(end)
        self._ends_sorted = None
        self._reservations.append(reservation)

    def _raise_conflict(
        self, new: Reservation, refs: array, j: int, k: int, n: int
    ) -> None:
        """Materialize the offending neighbor for the error message."""
        journal = self._reservations
        start_tol = new.start + TIME_EPS
        bounds_len = n
        if k and j - 1 < len(refs):
            prev = journal[refs[j - 1]]
            if prev.end > start_tol:
                raise PortConflictError(f"{new} overlaps existing {prev}")
        if k < bounds_len and j < len(refs):
            raise PortConflictError(f"{new} overlaps existing {journal[refs[j]]}")
        raise PortConflictError(f"{new} overlaps an existing reservation")

    def replay(self, reservations: Sequence[Reservation]) -> None:
        """Re-insert already-validated reservations (e.g. a kept Coflow
        plan after a :meth:`rollback`).  Overlap checks still apply, so a
        stale plan that no longer fits raises :class:`PortConflictError`
        instead of corrupting the table.

        The call is *atomic*: every port is validated (against existing
        reservations and the other replayed ones) before anything is
        written, so a conflicting batch leaves the table untouched.
        Insertion is batched per port — the replayed items are merged
        into each boundary array in one pass instead of paying a bisect
        plus three mid-array inserts per reservation.

        On the native backend (:mod:`repro.backend`) the whole
        transaction (grouping, validation, merge, journal/ends
        bookkeeping) is one C call into :mod:`repro._native`; the staging
        there never mutates the table, so on a conflict the call reports
        failure and this method falls through to the pure-Python twin,
        which re-derives and raises the byte-identical
        :class:`PortConflictError`.
        """
        n = len(reservations)
        if n == 0:
            return
        if n == 1:
            self._insert(reservations[0])
            return
        native = native_module()
        if native is not None and native.prt_replay(self, reservations, TIME_EPS):
            return
        self._replay_python(reservations)

    def _replay_python(self, reservations: Sequence[Reservation]) -> None:
        """Pure-Python batched replay (n >= 2); the native kernel's twin
        and the conflict-path error oracle."""
        base = len(self._reservations)
        in_groups: Dict[int, List[Tuple[float, float, int]]] = {}
        out_groups: Dict[int, List[Tuple[float, float, int]]] = {}
        for offset, reservation in enumerate(reservations):
            item = (reservation.start, reservation.end, base + offset)
            group = in_groups.get(reservation.src)
            if group is None:
                in_groups[reservation.src] = [item]
            else:
                group.append(item)
            group = out_groups.get(reservation.dst)
            if group is None:
                out_groups[reservation.dst] = [item]
            else:
                group.append(item)
        staged: List[Tuple[Dict[int, array], Dict[int, array], int, array, array, bool]] = []
        eps = TIME_EPS
        neg_inf = float("-inf")
        for table_b, table_r, groups in (
            (self._in_bounds, self._in_refs, in_groups),
            (self._out_bounds, self._out_refs, out_groups),
        ):
            for port, items in groups.items():
                if len(items) > 1:
                    items.sort()
                bounds = table_b.get(port)
                if not bounds or bounds[-1] <= items[0][0] + eps:
                    # Pure tail append: only the new items need checks
                    # against each other.
                    new_bounds = array("d")
                    new_refs = array("q")
                    prev_end = neg_inf
                    prev_ref = -1
                    for start, end, ref in items:
                        if prev_end > start + eps:
                            self._replay_conflict(
                                reservations, base, ref, prev_ref
                            )
                        new_bounds.append(start)
                        new_bounds.append(end)
                        new_refs.append(ref)
                        prev_end = end
                        prev_ref = ref
                    staged.append((table_b, table_r, port, new_bounds, new_refs, True))
                    continue
                refs = table_r[port]
                n_exist = len(refs)
                n_new = len(items)
                merged_bounds = array("d")
                merged_refs = array("q")
                i = 0
                k = 0
                prev_end = neg_inf
                prev_ref = -1
                while i < n_exist or k < n_new:
                    # Ties go to the new item, matching ``_insert``'s
                    # ``bisect_left`` placement of equal starts.
                    if k < n_new and (i >= n_exist or items[k][0] <= bounds[2 * i]):
                        start, end, ref = items[k]
                        k += 1
                    else:
                        start = bounds[2 * i]
                        end = bounds[2 * i + 1]
                        ref = refs[i]
                        i += 1
                    if prev_end > start + eps:
                        # Existing reservations never overlap each other,
                        # so one side of this pair is a replayed item.
                        self._replay_conflict(reservations, base, ref, prev_ref)
                    merged_bounds.append(start)
                    merged_bounds.append(end)
                    merged_refs.append(ref)
                    prev_end = end
                    prev_ref = ref
                staged.append((table_b, table_r, port, merged_bounds, merged_refs, False))
        # Apply: nothing above mutated the table, so a conflict left it
        # intact and this loop cannot fail.
        for table_b, table_r, port, new_bounds, new_refs, append in staged:
            bounds = table_b.get(port)
            if bounds is None:
                table_b[port] = new_bounds
                table_r[port] = new_refs
            elif append:
                bounds.extend(new_bounds)
                table_r[port].extend(new_refs)
            else:
                bounds[:] = new_bounds
                table_r[port][:] = new_refs
        self._reservations.extend(reservations)
        ends = self._ends
        for reservation in reservations:
            ends.append(reservation.end)
        self._ends_sorted = None

    def _replay_conflict(
        self,
        replayed: Sequence[Reservation],
        base: int,
        ref: int,
        prev_ref: int,
    ) -> None:
        """Materialize both sides of a replay overlap for the error."""

        def side(journal_ref: int) -> Reservation:
            if journal_ref >= base:
                return replayed[journal_ref - base]
            return self._reservations[journal_ref]

        cur = side(ref)
        if prev_ref < 0:
            raise PortConflictError(f"{cur} overlaps an existing reservation")
        prev = side(prev_ref)
        new = cur if ref >= base else prev
        other = prev if new is cur else cur
        raise PortConflictError(f"{new} overlaps existing {other}")

    # ------------------------------------------------------------------
    # Checkpoint / rollback
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Token for the current state; pass to :meth:`rollback` to undo
        every reservation made after this point."""
        return len(self._reservations)

    def rollback(self, token: int) -> int:
        """Undo all reservations made after ``checkpoint()`` returned
        ``token`` (most recent first).  Returns the number undone.

        The end-time column is in journal order, so the whole undone
        suffix is dropped with one slice deletion instead of a bisect +
        ``del`` per reservation.

        On the native backend (:mod:`repro.backend`) the whole
        transaction (per-port counting, tail strips or rebuilds,
        journal/ends truncation) is one C call; removal involves no float
        arithmetic, so the two paths are trivially bit-identical.
        """
        native = native_module()
        if native is not None:
            try:
                return native.prt_rollback(self, token)
            except OverflowError:
                # Ports outside the kernel's int32 hashing range; the
                # kernel scans the whole undone suffix before mutating
                # anything, so the table is intact and the Python twin
                # can take over.
                pass
        return self._rollback_python(token)

    def _rollback_python(self, token: int) -> int:
        """Pure-Python rollback twin (kept as the differential oracle)."""
        journal = self._reservations
        if token < 0 or token > len(journal):
            raise ValueError(
                f"invalid checkpoint token {token} for table of {len(journal)}"
            )
        undone = len(journal) - token
        if not undone:
            return 0
        if undone <= 4:
            for idx in range(len(journal) - 1, token - 1, -1):
                reservation = journal[idx]
                self._remove_from_port(
                    self._in_bounds[reservation.src],
                    self._in_refs[reservation.src],
                    reservation.start,
                    idx,
                )
                self._remove_from_port(
                    self._out_bounds[reservation.dst],
                    self._out_refs[reservation.dst],
                    reservation.start,
                    idx,
                )
        else:
            # Batched path: count how many undone reservations sit on each
            # port side, then strip each port once — one slice deletion
            # when the suffix is a pure tail, one rebuilding filter pass
            # otherwise — instead of a bisect + mid-array ``del`` per
            # reservation.
            in_counts: Dict[int, int] = {}
            out_counts: Dict[int, int] = {}
            for idx in range(token, len(journal)):
                reservation = journal[idx]
                src = reservation.src
                dst = reservation.dst
                in_counts[src] = in_counts.get(src, 0) + 1
                out_counts[dst] = out_counts.get(dst, 0) + 1
            for port, count in in_counts.items():
                self._strip_port(
                    self._in_bounds[port], self._in_refs[port], token, count
                )
            for port, count in out_counts.items():
                self._strip_port(
                    self._out_bounds[port], self._out_refs[port], token, count
                )
        del journal[token:]
        del self._ends[token:]
        self._ends_sorted = None
        return undone

    @staticmethod
    def _strip_port(bounds: array, refs: array, token: int, count: int) -> None:
        """Drop the ``count`` entries with journal ref >= ``token``."""
        n = len(refs)
        j = n
        while j and refs[j - 1] >= token:
            j -= 1
        if n - j == count:
            # All undone entries form a contiguous tail (the common case:
            # later reservations usually extend the timeline rightwards).
            del refs[j:]
            del bounds[2 * j :]
            return
        new_bounds = array("d")
        new_refs = array("q")
        for i in range(n):
            ref = refs[i]
            if ref < token:
                new_refs.append(ref)
                new_bounds.append(bounds[2 * i])
                new_bounds.append(bounds[2 * i + 1])
        bounds[:] = new_bounds
        refs[:] = new_refs

    @staticmethod
    def _remove_from_port(
        bounds: array, refs: array, start: float, journal_idx: int
    ) -> None:
        k = bisect_left(bounds, start)
        if k & 1:
            # Landed on the previous interval's end (== start, adjacent
            # reservations); the start itself is the next boundary.
            k += 1
        j = k >> 1
        # Starts are unique per port (reservations never overlap), so the
        # bisect lands exactly on the entry to remove.
        if j >= len(refs) or refs[j] != journal_idx or bounds[k] != start:
            raise ValueError(
                f"journal entry {journal_idx} (start={start}) not found on port"
            )
        del bounds[k : k + 2]
        del refs[j]

    # ------------------------------------------------------------------
    # Validation (used heavily by the test suite)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the port constraint holds for every port timeline.

        Raises:
            PortConflictError: if any two reservations overlap on a port.
        """
        journal = self._reservations
        for bounds_table, refs_table in (
            (self._in_bounds, self._in_refs),
            (self._out_bounds, self._out_refs),
        ):
            for port, bounds in bounds_table.items():
                refs = refs_table[port]
                for i in range(1, len(bounds) - 1, 2):
                    if bounds[i] > bounds[i + 1] + TIME_EPS:
                        earlier = journal[refs[(i - 1) >> 1]]
                        later = journal[refs[(i + 1) >> 1]]
                        raise PortConflictError(
                            f"port {port}: {earlier} overlaps {later}"
                        )
                for i in range(0, len(bounds), 2):
                    if bounds[i + 1] <= bounds[i]:  # pragma: no cover - invariant
                        raise PortConflictError(
                            f"port {port}: corrupt boundary pair at {i}"
                        )


class CoreReservationTables:
    """K per-core Port Reservation Tables with batched group operations.

    A K-core OCS fabric gives every port pair ``K`` parallel switch cores,
    each enforcing its own port constraint (a rack has one transceiver per
    core).  This container holds one :class:`PortReservationTable` per core
    and mirrors the single-table transaction surface — checkpoint,
    rollback, replay — *across* the group, so multi-core planners can
    speculate and undo whole multi-core plans exactly the way the
    single-switch incremental replanner does on one table:

    * :meth:`checkpoint` captures every core's journal position at once;
    * :meth:`rollback` undoes every core back to such a group token;
    * :meth:`replay` re-inserts a ``(core, reservation)`` batch atomically
      — if any core raises :class:`PortConflictError`, the cores already
      written are rolled back before the error propagates, leaving the
      whole group untouched.
    """

    __slots__ = ("tables",)

    def __init__(self, tables: Sequence[PortReservationTable]) -> None:
        if not tables:
            raise ValueError("a core group needs at least one table")
        self.tables = list(tables)

    @classmethod
    def fresh(cls, num_cores: int) -> "CoreReservationTables":
        """A group of ``num_cores`` empty tables."""
        if num_cores <= 0:
            raise ValueError(f"core count must be positive, got {num_cores!r}")
        return cls([PortReservationTable() for _ in range(num_cores)])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator[PortReservationTable]:
        return iter(self.tables)

    def __getitem__(self, core: int) -> PortReservationTable:
        return self.tables[core]

    @property
    def num_reservations(self) -> int:
        return sum(len(table) for table in self.tables)

    # ------------------------------------------------------------------
    def checkpoint(self) -> Tuple[int, ...]:
        """Group token: every core's journal position, in core order."""
        return tuple(table.checkpoint() for table in self.tables)

    def rollback(self, token: Sequence[int]) -> int:
        """Undo every core back to a group ``checkpoint``; returns the
        total number of reservations undone across the cores."""
        if len(token) != len(self.tables):
            raise ValueError(
                f"group token has {len(token)} entries for {len(self.tables)} cores"
            )
        return sum(
            table.rollback(mark) for table, mark in zip(self.tables, token)
        )

    def replay(self, items: Sequence[Tuple[int, Reservation]]) -> None:
        """Atomically re-insert ``(core, reservation)`` pairs.

        Per-core batches go through :meth:`PortReservationTable.replay`
        (itself atomic per table); on a conflict in any core, the cores
        already written are rolled back so the group is left exactly as it
        was before the call.
        """
        if not items:
            return
        per_core: Dict[int, List[Reservation]] = {}
        for core, reservation in items:
            if not 0 <= core < len(self.tables):
                raise ValueError(
                    f"core {core} out of range for {len(self.tables)}-core group"
                )
            per_core.setdefault(core, []).append(reservation)
        token = self.checkpoint()
        written: List[int] = []
        try:
            for core, batch in per_core.items():
                self.tables[core].replay(batch)
                written.append(core)
        except PortConflictError:
            for core in written:
                self.tables[core].rollback(token[core])
            raise

    # ------------------------------------------------------------------
    def clear(self) -> None:
        for table in self.tables:
            table.clear()

    def makespan(self) -> float:
        return max(table.makespan() for table in self.tables)

    def validate(self) -> None:
        for table in self.tables:
            table.validate()


__all__ = [
    "TIME_EPS",
    "PRT_LAYOUT_VERSION",
    "Reservation",
    "PortConflictError",
    "PortReservationTable",
    "CoreReservationTables",
    "native_transactions_available",
]
