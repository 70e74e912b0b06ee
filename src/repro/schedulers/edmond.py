"""Edmond baseline — max-weight matching per slot (paper §3.1.1).

Helios and c-Through style control loops apply a maximum-weight matching to
the current demand matrix and hold the resulting configuration for a fixed
slot whose length is set *outside* the algorithm ("typically fixed and on
the order of hundreds of milliseconds").  The paper calls this family
*Edmond* after the matching algorithm.

Our implementation solves the max-weight matching with the Hungarian
assignment substrate (optimal on bipartite graphs), subtracts the service a
slot delivers, and repeats until the demand drains.  Slots are shortened
only when the *entire* remaining demand fits inside one slot — otherwise a
circuit whose demand finishes early idles for the rest of the slot, which
is exactly the head-of-line inefficiency the paper attributes to this
approach.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.kernels.assignment import max_weight_matching as _matching_kernel
from repro.schedulers.base import (
    Assignment,
    AssignmentSchedule,
    AssignmentScheduler,
    Circuit,
    compact_demand,
)

_ZERO = 1e-12


class EdmondScheduler(AssignmentScheduler):
    """Repeated maximum-weight matching with a fixed externally-set slot.

    Args:
        slot_duration: seconds each configuration is held (default 300 ms —
            "typically fixed and on the order of hundreds of milliseconds",
            paper §3.1.1).
    """

    name = "edmond"

    def __init__(self, slot_duration: float = 0.3) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot duration must be positive, got {slot_duration!r}")
        self.slot_duration = slot_duration

    def schedule(
        self, demand_times: Mapping[Circuit, float], num_ports: int
    ) -> AssignmentSchedule:
        matrix, src_labels, dst_labels = compact_demand(demand_times)
        if matrix.size == 0:
            return AssignmentSchedule(assignments=[])
        return AssignmentSchedule(
            assignments=self._slots(matrix, src_labels, dst_labels)
        )

    def _slots(
        self, matrix: np.ndarray, src_labels: List[int], dst_labels: List[int]
    ) -> List[Assignment]:
        """Slot loop over an ndarray.

        Twin of the oracle's pure-Python slot loop: the per-slot O(n²)
        scan for remaining demand becomes one vectorized comparison and
        the drain update touches only the matched cells.  Circuits whose
        demand drains early idle for the rest of the fixed slot — the
        head-of-line inefficiency the paper attributes to this family.
        """
        work = matrix.copy()
        assignments: List[Assignment] = []
        while bool((work > _ZERO).any()):
            matching = _matching_kernel(work)
            if not matching:
                break
            circuits = tuple(
                (src_labels[i], dst_labels[j]) for i, j in sorted(matching.items())
            )
            assignments.append(
                Assignment(circuits=circuits, duration=self.slot_duration)
            )
            rows = np.fromiter(matching.keys(), dtype=np.intp, count=len(matching))
            cols = np.fromiter(matching.values(), dtype=np.intp, count=len(matching))
            values = work[rows, cols] - self.slot_duration
            np.maximum(values, 0.0, out=values)
            work[rows, cols] = values
        return assignments
