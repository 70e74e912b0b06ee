"""Lightweight performance counters for the hot simulation paths.

The inter-Coflow simulator replans every active Coflow at every event;
these counters make that work observable — how many events ran, how
many plans and reservations they computed, and where the wall time
went — without pulling in a profiler.

Counters are plain dict-backed integers and float timers; incrementing a
disabled counter set is still cheap enough to leave in the hot path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

#: The planner phase timers every instrumented run reports.
#: ``plan.order`` (the policy's priority order), ``plan.pack`` (demand →
#: planner entries) and ``plan.kernel`` (Algorithm 1 proper) split the
#: planner's share of the ``plan`` timer; the bench smoke checks assert
#: their presence so a refactor cannot silently drop the instrumentation.
PLAN_SUBTIMERS = ("plan.order", "plan.pack", "plan.kernel")

#: Process-wide accumulation of every :meth:`PerfCounters.add_time` call,
#: keyed by timer name.  Commands that bury their counter instance inside
#: a simulator (the CLI's ``--profile`` report) read the totals from here
#: instead of threading the instance out.
_process_timers_s: Dict[str, float] = {}


def process_timers() -> Dict[str, float]:
    """Copy of the process-wide timer totals (seconds by timer name)."""
    return dict(_process_timers_s)


def reset_process_timers() -> None:
    """Zero the process-wide timer totals (benchmarks isolate runs)."""
    _process_timers_s.clear()


class PerfCounters:
    """Named integer counters plus named wall-clock phase timers.

    Usage::

        perf = PerfCounters()
        perf.inc("plans_computed")
        with perf.timer("plan"):
            ...  # timed phase
        perf.snapshot()  # {"counts": {...}, "timers_s": {...}}
    """

    __slots__ = ("counts", "timers_s")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.timers_s: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def observe_max(self, name: str, value: int) -> None:
        """Track a high-water mark (e.g. peak concurrent flows).

        Stored in ``counts`` alongside the monotonic counters; note that
        :meth:`merge` *sums* counts, so fleet aggregation treats merged
        peaks as totals — snapshot per-run peaks before merging if the
        distinction matters.
        """
        current = self.counts.get(name)
        if current is None or value > current:
            self.counts[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        self.timers_s[name] = self.timers_s.get(name, 0.0) + seconds
        _process_timers_s[name] = _process_timers_s.get(name, 0.0) + seconds

    def time(self, name: str) -> float:
        return self.timers_s.get(name, 0.0)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.counts.clear()
        self.timers_s.clear()

    def merge(self, other: "PerfCounters") -> None:
        """Fold another counter set into this one (fleet aggregation)."""
        for name, value in other.counts.items():
            self.inc(name, value)
        for name, value in other.timers_s.items():
            # Straight into the instance dict: the source counters already
            # fed the process-wide totals when the time was first recorded.
            self.timers_s[name] = self.timers_s.get(name, 0.0) + value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready copy of the current counter and timer values."""
        return {
            "counts": dict(self.counts),
            "timers_s": dict(self.timers_s),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfCounters(counts={self.counts}, timers_s={self.timers_s})"
