"""Pure Birkhoff–von-Neumann scheduler (paper §2.3's δ = 0 optimum).

"When the preemption penalty is zero, i.e. δ = 0, the problem can be
solved optimally with the classic BvN algorithm."  This scheduler stuffs
the demand to equal line sums (preserving the original entries, unlike
TMS's scaling) and emits the exact BvN decomposition: total transmission
time equals the stuffed bottleneck load, which at δ = 0 equals the
packet-switched lower bound ``T^p_L``.

It serves two roles in the reproduction:

* a *reference optimum* for δ = 0 — tests check the executed makespan hits
  ``T^p_L`` exactly;
* the cleanest illustration of why preemptive decompositions collapse at
  δ > 0: its (potentially many) assignments each pay reconfiguration.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.kernels.decomposition import BvnTerm
from repro.kernels.decomposition import birkhoff_von_neumann as _bvn_kernel
from repro.kernels.matrix import quick_stuff as _quick_stuff_kernel
from repro.schedulers.base import (
    Assignment,
    AssignmentSchedule,
    AssignmentScheduler,
    Circuit,
    compact_demand,
    top_up,
)

_ZERO = 1e-12


class BvnScheduler(AssignmentScheduler):
    """QuickStuff + exact Birkhoff–von-Neumann decomposition.

    Runs on the numpy kernel layer; the differential tests hold it to
    the pure-Python oracle pipeline (QuickStuff and BvN are bit-for-bit
    twins), which overrides :meth:`_terms`.
    """

    name = "bvn"

    def schedule(
        self, demand_times: Mapping[Circuit, float], num_ports: int
    ) -> AssignmentSchedule:
        matrix, src_labels, dst_labels = compact_demand(demand_times)
        if matrix.size == 0:
            return AssignmentSchedule(assignments=[])
        terms = self._terms(matrix)
        assignments: List[Assignment] = []
        for term in terms:
            if term.weight <= _ZERO:
                continue
            circuits = []
            for i, j in sorted(term.permutation.items()):
                src, dst = src_labels[i], dst_labels[j]
                if src < 0 and dst < 0:
                    continue
                circuits.append((src, dst))
            assignments.append(
                Assignment(circuits=tuple(circuits), duration=term.weight)
            )

        # BvN's numerical drain can leave a ≤1e-6-relative crumb; top it up
        # so executors always finish (same safety net as TMS).
        return top_up(assignments, demand_times, _ZERO)

    def _terms(self, matrix: np.ndarray) -> List[BvnTerm]:
        """QuickStuff, then the exact BvN terms (none for a zero matrix)."""
        stuffed, _dummy = _quick_stuff_kernel(matrix)
        # Sequential sum: same gate decision as the oracle path.
        if sum(sum(row) for row in stuffed.tolist()) <= _ZERO:
            return []
        return _bvn_kernel(stuffed)
