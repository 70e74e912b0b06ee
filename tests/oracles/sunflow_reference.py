"""The literal Algorithm 1 (Sunflow, paper §4) as a test oracle.

:meth:`repro.core.sunflow.SunflowScheduler.schedule_demand` runs an
event-driven form of Algorithm 1: entries wait in per-port queues and
are re-attempted only when one of their own ports frees up.  The
subclass here adds the pseudocode as printed — rescan every remaining
entry at every circuit-release time — so property and fuzz tests can
check the two produce identical reservations.

It also carries the §6 quantization approximation, which pays only in
the literal loop (coincident releases mean fewer rescans), so
:class:`SunflowScheduler` has no ``quantum``;
``benchmarks/bench_ablation_extensions.py`` times the literal loop here.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Optional, Tuple

from repro.core.prt import TIME_EPS, PortReservationTable
from repro.core.sunflow import (
    CoflowSchedule,
    EstablishedCircuits,
    ReservationOrder,
    SunflowScheduler,
    _Entry,
)
from repro.units import DEFAULT_DELTA


class ReferenceSunflowScheduler(SunflowScheduler):
    """:class:`SunflowScheduler` plus the literal Algorithm 1.

    Args:
        quantum: optional approximation knob from §6, applied by
            :meth:`schedule_demand_reference` only — demand processing
            times are rounded *up* to a multiple of ``quantum`` seconds
            before scheduling.  Rounded-up reservations end on a coarse
            grid, so many circuit-release events coincide and the literal
            loop rescans at fewer instants, at the cost of some
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
        super().__init__(delta=delta, order=order, rng=rng)
        if quantum is not None and quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self.quantum = quantum

    def _quantize(self, seconds: float) -> float:
        """Round a processing time up to the §6 approximation grid."""
        if self.quantum is None:
            return seconds
        return math.ceil(seconds / self.quantum - TIME_EPS) * self.quantum

    def schedule_demand_reference(
        self,
        prt: PortReservationTable,
        coflow_id: int,
        demand_times: Mapping[Tuple[int, int], float],
        start_time: float = 0.0,
        established: Optional[EstablishedCircuits] = None,
    ) -> CoflowSchedule:
        """Literal transcription of Algorithm 1 (quadratic rescan loop).

        Without a ``quantum`` it produces the same reservations as
        :meth:`schedule_demand`; kept for validation and as executable
        documentation of the pseudocode.
        """
        established = established or {}
        if self.quantum is not None:
            # Rounding can take a sliver of demand to zero; such entries
            # are then skipped like any other demand at or below TIME_EPS.
            demand_times = {
                circuit: self._quantize(p)
                for circuit, p in demand_times.items()
                if p > TIME_EPS
            }
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

    def _make_reservation(
        self,
        prt: PortReservationTable,
        schedule: CoflowSchedule,
        entry: _Entry,
        t: float,
        start_time: float,
        established: EstablishedCircuits,
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
