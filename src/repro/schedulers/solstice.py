"""Solstice circuit scheduler (Liu et al., CoNEXT 2015; paper §3.1.1).

Solstice is the strongest preemptive baseline in the paper.  Two stages:

1. **QuickStuff** — pad the demand matrix with dummy demand until every row
   and column sums to the same value.  The padded matrix always admits a
   perfect matching over its positive entries.
2. **BigSlice** — repeatedly extract a perfect matching over entries at
   least a threshold ``r`` (starting at the largest power of two not
   exceeding the biggest entry and halving on failure), scheduling each
   matching as an assignment of duration ``r``.

The geometric threshold schedule leaves a fine-grained tail; we drain it
with an exact Birkhoff–von-Neumann decomposition once ``r`` falls below the
smallest positive entry.  This mirrors Solstice's long tail of short slots
(and is what produces the many switching events Figure 5 counts).  BigSlice
treats residuals below ``peak × 1e-9`` as drained, which can leave a real
entry a few nanoseconds short of its demand; a final top-up slot per such
entry makes every emitted schedule cover its demand within ``TIME_EPS``.

The pipeline runs on the numpy kernel layer (:mod:`repro.kernels`) —
demand stays a ``float64`` ndarray from :func:`compact_demand` through
stuffing, matching, and the BvN tail.  The differential tests hold it to
the pure-Python oracle pipeline, which overrides :meth:`_slices`.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.core.prt import TIME_EPS
from repro.kernels.decomposition import birkhoff_von_neumann as _bvn_kernel
from repro.kernels.matching import matching_from_matrix as _matching_kernel
from repro.kernels.matrix import quick_stuff as _quick_stuff_kernel
from repro.perf import scheduler_counters
from repro.schedulers.base import (
    Assignment,
    AssignmentSchedule,
    AssignmentScheduler,
    Circuit,
    compact_demand,
    top_up,
)

#: Entries below this fraction of the largest entry are treated as drained.
_ZERO_FRACTION = 1e-9


class SolsticeScheduler(AssignmentScheduler):
    """QuickStuff + BigSlice, with an exact BvN tail drain.

    Args:
        tail_fraction: once the halving threshold falls below this fraction
            of the largest stuffed entry, the residual is drained exactly
            with a BvN decomposition instead of halving further.  Real
            demands have unbounded binary expansions, so without a floor
            the threshold cascade would emit arbitrarily short slots; the
            floor mirrors Solstice's demand quantum.
    """

    name = "solstice"

    def __init__(self, tail_fraction: float = 2.0**-10) -> None:
        if not 0 < tail_fraction < 1:
            raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction!r}")
        self.tail_fraction = tail_fraction

    def schedule(
        self, demand_times: Mapping[Circuit, float], num_ports: int
    ) -> AssignmentSchedule:
        matrix, src_labels, dst_labels = compact_demand(demand_times)
        if matrix.size == 0:
            return AssignmentSchedule(assignments=[])
        assignments = [
            _relabel(assignment, src_labels, dst_labels)
            for assignment in self._slices(matrix)
        ]
        schedule = top_up(assignments, demand_times, TIME_EPS)
        scheduler_counters.inc("slices_emitted", schedule.num_assignments)
        return schedule

    def _slices(self, matrix: np.ndarray) -> List[Assignment]:
        """QuickStuff + BigSlice over the compact demand matrix."""
        stuffed, _dummy = _quick_stuff_kernel(matrix)
        return _big_slice_kernel(stuffed, self.tail_fraction)


def _initial_threshold(peak: float) -> float:
    """Largest power of two <= peak (works for sub-second values too)."""
    threshold = 1.0
    while threshold > peak:
        threshold /= 2.0
    while threshold * 2.0 <= peak:
        threshold *= 2.0
    return threshold


def _big_slice_kernel(stuffed: np.ndarray, tail_fraction: float) -> List[Assignment]:
    """Threshold-halving decomposition over an ndarray.

    Step-for-step twin of the oracle's pure-Python BigSlice: same
    thresholds, same matchings (the kernel matcher reproduces the
    reference Hopcroft–Karp), same subtractions — only the per-iteration
    O(n²) Python scans become vectorized reductions.
    """
    work = stuffed.copy()
    peak = float(work.max()) if work.size else 0.0
    if peak <= 0:
        return []
    zero = peak * _ZERO_FRACTION
    tail_threshold = peak * tail_fraction
    threshold = _initial_threshold(peak)

    assignments: List[Assignment] = []
    while True:
        positive = work[work > zero]
        if positive.size == 0:
            break
        smallest = float(positive.min())
        if threshold <= smallest or threshold <= tail_threshold:
            assignments.extend(_bvn_tail_kernel(work, zero))
            break
        matching = _matching_kernel(work, threshold=threshold - zero)
        if matching is None:
            threshold /= 2.0
            continue
        circuits = tuple(sorted(matching.items()))
        assignments.append(Assignment(circuits=circuits, duration=threshold))
        rows = np.fromiter(matching.keys(), dtype=np.intp, count=len(matching))
        cols = np.fromiter(matching.values(), dtype=np.intp, count=len(matching))
        values = work[rows, cols] - threshold
        values[values < zero] = 0.0
        work[rows, cols] = values
    return assignments


def _bvn_tail_kernel(work: np.ndarray, zero: float) -> List[Assignment]:
    """Drain the residual equal-line-sum ndarray exactly via BvN."""
    # Sequential sum to match the reference's drain gate bit for bit.
    residual_total = sum(sum(row) for row in work.tolist())
    if residual_total <= zero:
        return []
    try:
        terms = _bvn_kernel(work)
    except ValueError:
        # Each BigSlice clamp moves a line sum by up to ``zero``; when the
        # drift outgrows BvN's crumb tolerance the decomposition strands,
        # so restuff the residual to equal line sums and drain that.
        terms = _bvn_kernel(_quick_stuff_kernel(work)[0])
    tail = []
    for term in terms:
        if term.weight > zero:
            circuits = tuple(sorted(term.permutation.items()))
            tail.append(Assignment(circuits=circuits, duration=term.weight))
    work[:] = 0.0
    return tail


def _relabel(
    assignment: Assignment, src_labels: List[int], dst_labels: List[int]
) -> Assignment:
    """Map compact-matrix indices back to fabric port numbers.

    Circuits touching a virtual pad port (label < 0) carry only dummy
    demand and are dropped — the executor would waste time holding them,
    exactly as Solstice does, so we keep them *unless* both endpoints are
    virtual (those circuits can never carry even dummy bytes for a real
    port and exist purely to square the matrix).
    """
    circuits = []
    for i, j in assignment.circuits:
        src, dst = src_labels[i], dst_labels[j]
        if src < 0 and dst < 0:
            continue
        circuits.append((src, dst))
    return Assignment(circuits=tuple(circuits), duration=assignment.duration)
