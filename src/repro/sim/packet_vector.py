"""Array-backed fluid packet simulator (numpy twin of PacketSimulator).

Same event loop as :class:`~repro.sim.packet_sim.PacketSimulator` —
admit arrivals, allocate rates, find the next event, drain linearly,
emit completions — but flow state lives in one :class:`FlowArrays`
struct-of-arrays table instead of per-Coflow ``remaining`` dicts, and
every per-event pass dispatches to the vectorized kernels in
:mod:`repro.kernels.allocation`.

The table is maintained *incrementally*: ``advance`` mutates
``remaining``/``alive``/``unfinished``/``sent_seconds`` in place, and
the arrays are rebuilt only when membership changes.  Completed Coflows
are compacted lazily — their segments stay in the table (fully dead, so
every kernel skips them for free) until the next arrival triggers a
rebuild, which drops them.  Between the last arrival and the end of the
run the table therefore holds at most the Coflows that were active at
the last arrival, which bounds its size by the trace's concurrency, not
its length.

The engine is used by :func:`repro.sim.packet_sim.simulate_packet` only
when the numpy kernels are active (every backend but ``python``)
*and* the allocator is exactly one of the shipped classes — a subclass
that overrides ``allocate`` would silently diverge from the vectorized
twin, so it falls back to the reference engine.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.prt import TIME_EPS
from repro.kernels.allocation import (
    FlowArrays,
    advance,
    check_capacity,
    next_completion,
)
from repro.perf import packet_counters
from repro.sim.aalo import AaloAllocator
from repro.sim.engine import run_replay
from repro.sim.packet_sim import RateAllocator
from repro.sim.results import SimulationReport, make_record
from repro.sim.varys import VarysAllocator
from repro.units import DEFAULT_BANDWIDTH

#: Allocators with a vectorized twin.  Exact types only: subclasses may
#: override ``allocate``/``extra_event_time``, and the vector engine
#: would bypass those overrides.
VECTOR_ALLOCATORS = (VarysAllocator, AaloAllocator)


def vector_capable(allocator: RateAllocator) -> bool:
    """True when ``allocator`` can run on the array-backed engine."""
    return type(allocator) in VECTOR_ALLOCATORS


class _Slot:
    """Per-Coflow metadata the arrays don't carry (static after admit)."""

    __slots__ = ("coflow", "proc", "src", "dst", "cidx")

    def __init__(self, coflow: Coflow, bandwidth_bps: float) -> None:
        self.coflow = coflow
        times = coflow.processing_times(bandwidth_bps)
        n = len(times)
        # Flow order == the processing_times dict order the reference
        # engine iterates; every per-flow kernel pass preserves it.
        self.proc = np.fromiter(times.values(), dtype=np.float64, count=n)
        self.src = np.fromiter((c[0] for c in times), dtype=np.int32, count=n)
        self.dst = np.fromiter((c[1] for c in times), dtype=np.int32, count=n)
        self.cidx: Optional[int] = None  # slot index in the current table


def _build_table(
    slots: List[_Slot], old: Optional[FlowArrays], num_ports: int
) -> FlowArrays:
    """(Re)build the flow table, carrying live state over from ``old``."""
    C = len(slots)
    counts = np.empty(C, dtype=np.int64)
    sent = np.empty(C, dtype=np.float64)
    rem_parts: List[np.ndarray] = []
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    arrival: List[float] = []
    ids: List[int] = []
    for k, slot in enumerate(slots):
        if slot.cidx is not None and old is not None:
            lo = int(old.starts[slot.cidx])
            hi = int(old.starts[slot.cidx + 1])
            rem_parts.append(old.remaining[lo:hi])
            sent[k] = old.sent_seconds[slot.cidx]
        else:
            rem_parts.append(slot.proc)
            sent[k] = 0.0
        src_parts.append(slot.src)
        dst_parts.append(slot.dst)
        counts[k] = slot.src.shape[0]
        arrival.append(slot.coflow.arrival_time)
        ids.append(slot.coflow.coflow_id)
        slot.cidx = k

    starts = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    if rem_parts:
        remaining = np.concatenate(rem_parts)
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
    else:
        remaining = np.empty(0, dtype=np.float64)
        src = np.empty(0, dtype=np.int32)
        dst = np.empty(0, dtype=np.int32)
    coflow_idx = np.repeat(np.arange(C, dtype=np.int32), counts)
    alive = remaining > TIME_EPS
    unfinished = np.bincount(
        coflow_idx[alive], minlength=C
    ).astype(np.int64, copy=False)
    return FlowArrays(
        num_ports=num_ports,
        remaining=remaining,
        rate=np.zeros(remaining.shape[0]),
        src=src,
        dst=dst,
        dst_off=(dst + np.int32(num_ports)),
        coflow_idx=coflow_idx,
        starts=starts,
        alive=alive,
        unfinished=unfinished,
        sent_seconds=sent,
        arrival=arrival,
        coflow_ids=ids,
    )


class VectorPacketSimulator:
    """Trace replay on the fluid packet switch, struct-of-arrays edition.

    Event-for-event identical to the reference ``PacketSimulator`` (the
    differential suite in ``tests/kernels`` holds the two engines to
    bitwise-equal event sequences and CCT records); ``event_times``
    records the processed event sequence for exactly that comparison.
    """

    def __init__(
        self,
        trace: CoflowTrace,
        allocator: RateAllocator,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
    ) -> None:
        self.trace = trace.sorted_by_arrival()
        self.allocator = allocator
        self.bandwidth_bps = bandwidth_bps
        self.event_times: List[float] = []

    def run(self) -> SimulationReport:
        self._report = SimulationReport(
            self.allocator.name, self.bandwidth_bps, delta=0.0
        )
        self._passes = getattr(self.allocator, "allocation_passes", 1)
        self._live = []
        self._table = None
        self._table_stale = False
        run_replay(self, list(self.trace))
        return self._report

    # ------------------------------------------------------------------
    # ReplayHost hooks (driven by repro.sim.engine.run_replay)
    # ------------------------------------------------------------------
    def has_active(self) -> bool:
        return bool(self._live)

    def admit(self, coflow: Coflow, now: float) -> None:
        self._live.append(_Slot(coflow, self.bandwidth_bps))
        self._table_stale = True

    def plan(self, now: float, next_arrival: float) -> float:
        allocator = self.allocator
        bandwidth = self.bandwidth_bps
        num_ports = self.trace.num_ports
        if self._table_stale:
            # Rebuild drops lazily-retained dead segments and appends the
            # new Coflows' flows.
            self._table = _build_table(self._live, self._table, num_ports)
            self._table_stale = False
        table = self._table

        order = allocator.vector_allocate(table, num_ports, bandwidth)
        packet_counters.inc("rate_reallocations")
        packet_counters.inc("allocator_passes", self._passes)
        packet_counters.observe_max(
            "flows_active_peak", int(table.unfinished.sum())
        )
        check_capacity(table, order, num_ports)

        event_time = min(
            next_arrival,
            next_completion(table, now, allocator.reallocate_on_flow_completion),
            allocator.vector_extra_event_time(table, now, bandwidth),
        )
        # numpy scalars leak out of the vector kernels; the engine (and
        # the event_times log the differential suite compares) works in
        # native floats.
        return float(event_time)

    def advance(self, now: float, event_time: float) -> None:
        table = self._table
        advance(table, event_time - now)
        packet_counters.inc("events_processed")

        unfinished = table.unfinished
        live = self._live
        if any(unfinished[slot.cidx] == 0 for slot in live):
            still: List[_Slot] = []
            for slot in live:
                if unfinished[slot.cidx] == 0:
                    self._report.add(
                        make_record(
                            slot.coflow,
                            completion_time=event_time,
                            bandwidth_bps=self.bandwidth_bps,
                            delta=0.0,
                            switching_count=0,
                        )
                    )
                else:
                    still.append(slot)
            self._live = still
        self.event_times.append(event_time)
