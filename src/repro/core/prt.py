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
(:meth:`reserve` returns the object recorded in a Coflow's plan, and
iteration walks the journal).

The pre-array implementation is a test oracle
(``ReferencePortReservationTable`` in ``tests/oracles/prt_reference.py``)
and the two are differentially fuzzed against each other.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Tolerance for floating-point time comparisons throughout the scheduler.
TIME_EPS = 1e-9

#: Version of the storage layout documented above, as consumed by the
#: optional compiled planner (``src/repro/_native.c`` copies the per-port
#: ``array('d')``/``array('q')`` buffers in through the buffer protocol
#: and writes them back with ``frombytes``).  Bump this whenever the struct-of-arrays contract changes —
#: boundary interleaving, typecodes, the ``__slots__`` names, or the
#: journal/``_ends``/``_ends_sorted`` bookkeeping — so a stale extension
#: build is refused (:mod:`repro.backend` treats it as absent and the
#: pure-Python planner runs) instead of corrupting tables.
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
    can be undone in O(k log n) for k undone reservations, and
    :meth:`replay` re-inserts a batch atomically.  The global release-time
    column is kept in journal order (append on insert, slice-truncate on
    rollback) and sorted lazily only when :meth:`next_release_after`
    needs it.  No runtime path calls the transactions; the repository
    benchmark's traced pass wraps them.
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
        """Drop every reservation (and the journal) in place."""
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

    def release_events_for_input(
        self, port: int, t: float
    ) -> List[Tuple[float, int, int]]:
        """``(end, src, dst)`` for input-port reservations ending after ``t``.

        Shaped for the scheduler's release-event heap.  One bisect lands
        on the first candidate: per-port reservations never overlap, so
        sorted-by-start is also sorted-by-end, and ``bisect_right`` over
        the interleaved boundary array skips the released prefix.  Ends
        come straight from the boundary array and only the peer port is
        read off the journal.
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
        """Re-insert already-validated reservations (e.g. a plan undone by
        a :meth:`rollback`) in order.  Overlap checks still apply, so a
        stale plan that no longer fits raises :class:`PortConflictError`
        instead of corrupting the table.

        The call is *atomic*: on a conflict every reservation it inserted
        is rolled back before the error propagates.
        """
        token = self.checkpoint()
        try:
            for reservation in reservations:
                self._insert(reservation)
        except PortConflictError:
            self.rollback(token)
            raise

    # ------------------------------------------------------------------
    # Checkpoint / rollback
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Token for the current state; pass to :meth:`rollback` to undo
        every reservation made after this point."""
        return len(self._reservations)

    def rollback(self, token: int) -> int:
        """Undo all reservations made after ``checkpoint()`` returned
        ``token`` (most recent first).  Returns the number undone."""
        journal = self._reservations
        if token < 0 or token > len(journal):
            raise ValueError(
                f"invalid checkpoint token {token} for table of {len(journal)}"
            )
        undone = len(journal) - token
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
        del journal[token:]
        del self._ends[token:]
        self._ends_sorted = None
        return undone

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
    """K per-core Port Reservation Tables.

    A K-core OCS fabric gives every port pair ``K`` parallel switch cores,
    each enforcing its own port constraint (a rack has one transceiver per
    core).  This container holds one :class:`PortReservationTable` per
    core; the K-core planners index it by core.
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
]
