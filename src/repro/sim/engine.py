"""The discrete-event engine every simulator in this package drives.

The Coflow simulators are *reschedule-on-event* simulators (paper §6:
"Sunflow reschedules only upon Coflow arrivals and completions"), and all
of them — circuit replay, flow-level packet, vectorized packet — share
one event-loop skeleton: admit the Coflows arriving at the current
instant, ask the scheduling layer when the next internal event (a
completion, a guard-slice end, an allocator wake-up) falls, step time to
the earlier of that and the next arrival, then bank progress and record
completions.  :func:`run_replay` is that skeleton, written once; each
simulator plugs in as a :class:`ReplayHost` and owns only the
domain-specific hooks.

:class:`EventQueue` — a stable priority queue of timestamped events
(deterministic FIFO ordering of simultaneous events, protection against
time moving backwards) — drives the §6 system runner's message loop.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Generic,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.prt import TIME_EPS

Payload = TypeVar("Payload")


@dataclass(frozen=True)
class Event(Generic[Payload]):
    """A timestamped event; ``sequence`` preserves insertion order at ties."""

    time: float
    sequence: int
    payload: Payload


class EventQueue(Generic[Payload]):
    """Heap-backed event queue with stable FIFO ordering for equal times."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Payload]] = []
        self._counter = itertools.count()
        self._now = float("-inf")

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def now(self) -> float:
        """Time of the most recently popped event (-inf before the first)."""
        return self._now

    def push(self, time: float, payload: Payload) -> None:
        """Schedule an event; it may not precede the last popped event."""
        if time < self._now - 1e-9:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        heapq.heappush(self._heap, (time, next(self._counter), payload))

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Event[Payload]:
        time, sequence, payload = heapq.heappop(self._heap)
        self._now = time
        return Event(time=time, sequence=sequence, payload=payload)


class ReplayHost(Protocol):
    """What a simulator must provide to be driven by :func:`run_replay`.

    The host owns all domain state (active Coflows, rate/plan tables,
    completion records); the engine owns time, arrival admission, and the
    event loop itself.
    """

    def has_active(self) -> bool:
        """True while any admitted Coflow is still unfinished."""

    def admit(self, coflow, now: float) -> None:
        """Activate one arriving Coflow at instant ``now``."""

    def plan(self, now: float, next_arrival: float) -> float:
        """(Re)schedule at ``now``; return the next event's time.

        The returned instant is the earlier of ``next_arrival`` and the
        host's next internal event (completion, guard-slice end,
        allocator wake-up).  Return ``inf`` only when the host can make
        no progress at all — with no arrivals remaining that is a fatal
        stall and the engine raises.
        """

    def advance(self, now: float, event_time: float) -> None:
        """Bank progress over ``[now, event_time)`` and record completions."""


def run_replay(host: ReplayHost, arrivals: Sequence) -> List[float]:
    """The one trace-replay event loop (shared by every simulator here).

    Drives ``host`` through the whole trace: jump idle gaps to the next
    arrival, admit everything arriving within ``TIME_EPS`` of the current
    instant, let the host plan, step to the chosen event, advance.
    ``arrivals`` must be sorted by ``arrival_time`` (traces are).

    Returns the processed event times (also what each iteration set
    ``now`` to) — the event sequence the differential suites compare.
    This list grows with the trace; million-coflow streaming replays use
    :func:`run_replay_stream` directly, which shares the same loop but
    keeps only a counter.

    Raises:
        RuntimeError: if the host reports no upcoming event while no
            arrivals remain (a packet allocator that starved every active
            Coflow; circuit plans always yield a finite completion).
    """
    event_times: List[float] = []
    run_replay_stream(host, arrivals, on_event=event_times.append)
    return event_times


#: End-of-stream marker for the replay loop's one-event lookahead.  A
#: private sentinel (not ``None``) so a trace could, in principle, carry
#: falsy arrival objects without terminating the stream early.
_END = object()


def run_replay_stream(
    host: ReplayHost,
    arrivals: Iterable,
    on_event: Optional[Callable[[float], None]] = None,
) -> int:
    """The replay loop over an arrival *iterator*: O(active) memory.

    Identical event-for-event to :func:`run_replay` (which delegates
    here): the loop keeps a one-arrival lookahead instead of indexing a
    materialized list, so a streaming trace source — a chunked on-disk
    reader, a generator — feeds the simulation without the full Coflow
    list ever existing in memory.  ``arrivals`` must be sorted by
    ``arrival_time``; the streaming readers in
    :mod:`repro.workloads.stream` validate that as they yield.

    Args:
        host: the simulator being driven.
        arrivals: Coflows sorted by arrival time (any iterable).
        on_event: optional per-event callback receiving each processed
            event time (used by :func:`run_replay` to collect the event
            sequence, and by the streaming benchmark to sample RSS and
            throughput at checkpoints without retaining history).

    Returns:
        The number of events processed.

    Raises:
        RuntimeError: if the host reports no upcoming event while no
            arrivals remain (see :func:`run_replay`).
    """
    stream = iter(arrivals)
    pending = next(stream, _END)
    events = 0
    now = 0.0
    while pending is not _END or host.has_active():
        if not host.has_active():
            now = pending.arrival_time
        while pending is not _END and pending.arrival_time <= now + TIME_EPS:
            host.admit(pending, now)
            pending = next(stream, _END)
        next_arrival = pending.arrival_time if pending is not _END else math.inf
        event_time = host.plan(now, next_arrival)
        if math.isinf(event_time):
            raise RuntimeError(
                "no progress possible: allocator starved all active coflows "
                "and no arrivals remain"
            )
        host.advance(now, event_time)
        events += 1
        if on_event is not None:
            on_event(event_time)
        now = event_time
    return events
