"""Reference Port Reservation Table (pre-array-backed implementation).

This is the list-of-``Reservation``-objects PRT that shipped before the
struct-of-arrays rewrite in :mod:`repro.core.prt`.  It is retained verbatim
(modulo imports) as the behavioural oracle for the differential fuzz tests
in ``tests/core/test_prt_equivalence.py``: random reserve / checkpoint /
rollback / replay sequences are driven through both tables and must produce
identical reservations, makespans, and conflict errors.

It lives with the test oracles; the runtime uses
:class:`repro.core.prt.PortReservationTable`.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.prt import TIME_EPS, PortConflictError, Reservation


def _start_of(reservation: "Reservation") -> float:
    return reservation.start


class ReferencePortReservationTable:
    """Reservation timelines for every input and output port.

    The table is write-once per interval: Sunflow never preempts an existing
    reservation, so reservations only accumulate.  Lookups the scheduler
    needs — "is this port free at ``t``?", "when is the next reservation on
    this port after ``t``?", "when is the next circuit release anywhere?" —
    are all O(log n) via per-port sorted lists plus a global sorted list of
    release (end) times.

    The table additionally supports *checkpoint/rollback*: reservations are
    journalled in insertion order, so any suffix of the insertion history
    can be undone in O(k log n) for k undone reservations.
    """

    def __init__(self) -> None:
        self._in: Dict[int, List[Reservation]] = {}
        self._out: Dict[int, List[Reservation]] = {}
        self._in_starts: Dict[int, List[float]] = {}
        self._out_starts: Dict[int, List[float]] = {}
        self._ends: List[float] = []
        self._reservations: List[Reservation] = []

    def clear(self) -> None:
        """Drop every reservation (and the journal) in place."""
        self._in.clear()
        self._out.clear()
        self._in_starts.clear()
        self._out_starts.clear()
        self._ends.clear()
        self._reservations.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._reservations)

    def __iter__(self) -> Iterator[Reservation]:
        return iter(self._reservations)

    _EMPTY: Tuple[Reservation, ...] = ()

    def reservations_for_input(self, port: int) -> Sequence[Reservation]:
        """Reservations on input ``port``, sorted by start.

        Returns a read-only view of internal state (no copy): callers must
        not mutate it, and must not hold it across a ``reserve``/``rollback``.
        """
        return self._in.get(port, self._EMPTY)

    def reservations_for_output(self, port: int) -> Sequence[Reservation]:
        """Reservations on output ``port``, sorted by start (read-only view)."""
        return self._out.get(port, self._EMPTY)

    def _releases_after(
        self, table: Dict[int, List[Reservation]], port: int, t: float
    ) -> Iterator[Reservation]:
        """Reservations on ``port`` whose end lies after ``t``, without
        scanning (or copying) the already-released prefix of the timeline.

        Per-port reservations are non-overlapping, so sorted-by-start is
        also sorted-by-end: every reservation from the first candidate on
        has ``end > t`` except possibly the candidate itself.
        """
        reservations = table.get(port)
        if not reservations:
            return
        idx = bisect.bisect_right(reservations, t + TIME_EPS, key=_start_of) - 1
        if idx < 0:
            idx = 0
        while idx < len(reservations) and reservations[idx].end <= t + TIME_EPS:
            idx += 1
        for i in range(idx, len(reservations)):
            yield reservations[i]

    def input_releases_after(self, port: int, t: float) -> Iterator[Reservation]:
        return self._releases_after(self._in, port, t)

    def output_releases_after(self, port: int, t: float) -> Iterator[Reservation]:
        return self._releases_after(self._out, port, t)

    def input_reservation_at(self, port: int, t: float) -> Optional[Reservation]:
        """The reservation covering ``t`` on input port ``port``, if any.

        Body is inlined (rather than sharing a ``_covering`` helper) because
        this is the single hottest query in ``schedule_demand``.
        """
        starts = self._in_starts.get(port)
        if not starts:
            return None
        idx = bisect.bisect_right(starts, t + TIME_EPS) - 1
        if idx >= 0:
            candidate = self._in[port][idx]
            if candidate.start <= t + TIME_EPS and t < candidate.end - TIME_EPS:
                return candidate
        return None

    def output_reservation_at(self, port: int, t: float) -> Optional[Reservation]:
        """The reservation covering ``t`` on output port ``port``, if any."""
        starts = self._out_starts.get(port)
        if not starts:
            return None
        idx = bisect.bisect_right(starts, t + TIME_EPS) - 1
        if idx >= 0:
            candidate = self._out[port][idx]
            if candidate.start <= t + TIME_EPS and t < candidate.end - TIME_EPS:
                return candidate
        return None

    def input_free_at(self, port: int, t: float) -> bool:
        return self.input_reservation_at(port, t) is None

    def output_free_at(self, port: int, t: float) -> bool:
        return self.output_reservation_at(port, t) is None

    @staticmethod
    def _next_start(starts: List[float], t: float) -> float:
        """Earliest reservation start at or after ``t`` (inf if none)."""
        # bisect_left already lands on the first start >= t - eps — a start
        # within eps *before* t still counts as "next" so a zero-length gap
        # is never mistaken for usable port time.
        idx = bisect.bisect_left(starts, t - TIME_EPS)
        return starts[idx] if idx < len(starts) else float("inf")

    def next_reserved_time(self, src: int, dst: int, t: float) -> float:
        """``t_m`` of Algorithm 1 line 16: earliest upcoming reservation start
        on either ``in.src`` or ``out.dst``, at or after ``t`` (inf if none)."""
        next_in = self._next_start(self._in_starts.get(src, []), t)
        next_out = self._next_start(self._out_starts.get(dst, []), t)
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
        for table, starts_table, port, is_input in (
            (self._in, self._in_starts, src, True),
            (self._out, self._out_starts, dst, False),
        ):
            starts = starts_table.get(port)
            if not starts:
                continue
            idx = bisect.bisect_left(starts, t - TIME_EPS)
            if idx < len(starts) and starts[idx] <= t_next + TIME_EPS:
                candidate = table[port][idx].end
                if candidate < end:
                    end = candidate
                    on_input = is_input
        return end, on_input

    def next_release_after(self, t: float) -> Optional[float]:
        """Earliest reservation end strictly after ``t`` across all ports.

        Algorithm 1 line 10 advances the scheduling clock to this instant.
        """
        idx = bisect.bisect_right(self._ends, t + TIME_EPS)
        if idx < len(self._ends):
            return self._ends[idx]
        return None

    def makespan(self) -> float:
        """Latest reservation end in the table (0 when empty)."""
        return self._ends[-1] if self._ends else 0.0

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
        the check and the insertion point (this is the hottest PRT write)."""
        in_list = self._in.setdefault(reservation.src, [])
        in_starts = self._in_starts.setdefault(reservation.src, [])
        out_list = self._out.setdefault(reservation.dst, [])
        out_starts = self._out_starts.setdefault(reservation.dst, [])
        idx_in = bisect.bisect_left(in_starts, reservation.start)
        self._check_neighbors(in_list, idx_in, reservation)
        idx_out = bisect.bisect_left(out_starts, reservation.start)
        self._check_neighbors(out_list, idx_out, reservation)
        in_list.insert(idx_in, reservation)
        in_starts.insert(idx_in, reservation.start)
        out_list.insert(idx_out, reservation)
        out_starts.insert(idx_out, reservation.start)
        bisect.insort(self._ends, reservation.end)
        self._reservations.append(reservation)

    @staticmethod
    def _check_neighbors(
        reservations: List[Reservation], idx: int, new: Reservation
    ) -> None:
        """Overlap check against the would-be neighbors at insert point ``idx``."""
        if idx > 0 and reservations[idx - 1].end > new.start + TIME_EPS:
            raise PortConflictError(
                f"{new} overlaps existing {reservations[idx - 1]}"
            )
        if idx < len(reservations) and reservations[idx].start < new.end - TIME_EPS:
            raise PortConflictError(f"{new} overlaps existing {reservations[idx]}")

    def replay(self, reservations: Sequence[Reservation]) -> None:
        """Re-insert already-validated reservations (e.g. a cached Coflow
        plan after a :meth:`rollback`).  Overlap checks still apply, so a
        stale plan that no longer fits raises :class:`PortConflictError`
        instead of corrupting the table.  The call is atomic: on conflict
        the already-inserted prefix is undone before re-raising, matching
        the batched array implementation."""
        inserted = 0
        try:
            for reservation in reservations:
                self._insert(reservation)
                inserted += 1
        except PortConflictError:
            if inserted:
                self.rollback(len(self._reservations) - inserted)
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
        if token < 0 or token > len(self._reservations):
            raise ValueError(
                f"invalid checkpoint token {token} for table of {len(self._reservations)}"
            )
        undone = 0
        while len(self._reservations) > token:
            reservation = self._reservations.pop()
            self._remove_from_port(
                self._in, self._in_starts, reservation.src, reservation
            )
            self._remove_from_port(
                self._out, self._out_starts, reservation.dst, reservation
            )
            idx = bisect.bisect_left(self._ends, reservation.end)
            # Duplicate end values are interchangeable floats; drop any one.
            del self._ends[idx]
            undone += 1
        return undone

    @staticmethod
    def _remove_from_port(
        table: Dict[int, List[Reservation]],
        starts_table: Dict[int, List[float]],
        port: int,
        reservation: Reservation,
    ) -> None:
        reservations = table[port]
        starts = starts_table[port]
        idx = bisect.bisect_left(starts, reservation.start)
        # Starts are unique per port (reservations never overlap), so the
        # bisect lands exactly on the entry to remove.
        if idx >= len(reservations) or reservations[idx] is not reservation:
            raise ValueError(f"{reservation} not found on port {port}")
        del reservations[idx]
        del starts[idx]

    # ------------------------------------------------------------------
    # Validation (used heavily by the test suite)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the port constraint holds for every port timeline.

        Raises:
            PortConflictError: if any two reservations overlap on a port.
        """
        for table in (self._in, self._out):
            for port, reservations in table.items():
                for earlier, later in zip(reservations, reservations[1:]):
                    if earlier.end > later.start + TIME_EPS:
                        raise PortConflictError(
                            f"port {port}: {earlier} overlaps {later}"
                        )
