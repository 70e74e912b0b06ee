"""Pure-Python pipelines of the four baseline schedulers.

Each scheduler in :mod:`repro.schedulers` runs its decomposition on the
numpy kernels behind one method (``_slices``, ``_decompose``, ``_slots``
or ``_terms``).  The subclasses here override exactly that method with
the pipeline that shipped before the kernel layer, over nested lists and
the ``*_reference`` oracles, so a differential test can run the same
``schedule`` call down both paths and compare the results.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.schedulers.base import Assignment
from repro.schedulers.bvn import _ZERO as _BVN_ZERO
from repro.schedulers.bvn import BvnScheduler
from repro.schedulers.edmond import _ZERO as _EDMOND_ZERO
from repro.schedulers.edmond import EdmondScheduler
from repro.schedulers.solstice import (
    _ZERO_FRACTION,
    SolsticeScheduler,
    _initial_threshold,
)
from repro.schedulers.tms import _ZERO as _TMS_ZERO
from repro.schedulers.tms import TmsScheduler
from tests.oracles.birkhoff_reference import birkhoff_von_neumann
from tests.oracles.hopcroft_karp_reference import matching_from_matrix
from tests.oracles.hungarian_reference import max_weight_matching
from tests.oracles.stuffing_reference import quick_stuff, sinkhorn_scale


class ReferenceSolsticeScheduler(SolsticeScheduler):
    """Solstice over the pure-Python QuickStuff and BigSlice."""

    def _slices(self, matrix: np.ndarray) -> List[Assignment]:
        stuffed_list, _dummy = quick_stuff(matrix.tolist())
        return _big_slice_reference(stuffed_list, self.tail_fraction)


def _big_slice_reference(
    stuffed: List[List[float]], tail_fraction: float
) -> List[Assignment]:
    """Threshold-halving decomposition (retained pure-Python path)."""
    work = [row[:] for row in stuffed]
    peak = max((value for row in work for value in row), default=0.0)
    if peak <= 0:
        return []
    zero = peak * _ZERO_FRACTION
    tail_threshold = peak * tail_fraction
    threshold = _initial_threshold(peak)

    assignments: List[Assignment] = []
    while True:
        positive = [value for row in work for value in row if value > zero]
        if not positive:
            break
        smallest = min(positive)
        if threshold <= smallest or threshold <= tail_threshold:
            # Exact tail drain: BvN pulls out perfect matchings weighted by
            # the minimum matched entry, terminating with full coverage.
            residual_total = sum(sum(row) for row in work)
            if residual_total > zero:
                try:
                    terms = birkhoff_von_neumann(work)
                except ValueError:
                    # BigSlice's clamps drifted the line sums too far.
                    terms = birkhoff_von_neumann(quick_stuff(work)[0])
                for term in terms:
                    if term.weight > zero:
                        circuits = tuple(sorted(term.permutation.items()))
                        assignments.append(
                            Assignment(circuits=circuits, duration=term.weight)
                        )
            for row in work:
                for j in range(len(row)):
                    row[j] = 0.0
            break
        matching = matching_from_matrix(work, threshold=threshold - zero)
        if matching is None:
            threshold /= 2.0
            continue
        circuits = tuple(sorted(matching.items()))
        assignments.append(Assignment(circuits=circuits, duration=threshold))
        for i, j in matching.items():
            work[i][j] -= threshold
            if work[i][j] < zero:
                work[i][j] = 0.0
    return assignments


class ReferenceTmsScheduler(TmsScheduler):
    """TMS over the pure-Python Sinkhorn and BvN."""

    def _decompose(self, matrix: np.ndarray) -> Tuple[list, float]:
        return self._decompose_reference(matrix.tolist())

    def _decompose_reference(self, matrix: List[List[float]]) -> Tuple[list, float]:
        """Sinkhorn + BvN + week stretch on the retained pure-Python path."""
        peak = max(max(row) for row in matrix)
        if peak <= _TMS_ZERO:
            return [], 0.0
        fill = peak * self.fill_fraction
        filled = [
            [value if value > _TMS_ZERO else fill for value in row] for row in matrix
        ]
        stochastic = sinkhorn_scale(filled, iterations=self.sinkhorn_iterations)

        week = 0.0
        for i, row in enumerate(matrix):
            for j, seconds in enumerate(row):
                if seconds > _TMS_ZERO:
                    week = max(week, seconds / stochastic[i][j])
        return birkhoff_von_neumann(stochastic), week


class ReferenceEdmondScheduler(EdmondScheduler):
    """Edmond over the pure-Python Hungarian matching."""

    def _slots(
        self, matrix: np.ndarray, src_labels: List[int], dst_labels: List[int]
    ) -> List[Assignment]:
        return self._slots_reference(matrix.tolist(), src_labels, dst_labels)

    def _slots_reference(
        self,
        matrix: List[List[float]],
        src_labels: List[int],
        dst_labels: List[int],
    ) -> List[Assignment]:
        """Slot loop on the retained pure-Python path."""
        work = [row[:] for row in matrix]
        assignments: List[Assignment] = []
        while True:
            remaining_entries = [v for row in work for v in row if v > _EDMOND_ZERO]
            if not remaining_entries:
                break
            matching = max_weight_matching(work)
            if not matching:
                break
            # The slot length is fixed outside the algorithm: circuits whose
            # demand drains early idle for the rest of the slot — the
            # head-of-line inefficiency the paper attributes to this family.
            circuits = tuple(
                (src_labels[i], dst_labels[j]) for i, j in sorted(matching.items())
            )
            assignments.append(
                Assignment(circuits=circuits, duration=self.slot_duration)
            )
            for i, j in matching.items():
                work[i][j] = max(0.0, work[i][j] - self.slot_duration)
        return assignments


class ReferenceBvnScheduler(BvnScheduler):
    """BvN over the pure-Python QuickStuff and decomposition."""

    def _terms(self, matrix: np.ndarray) -> list:
        stuffed_list, _dummy = quick_stuff(matrix.tolist())
        if sum(sum(row) for row in stuffed_list) <= _BVN_ZERO:
            return []
        return birkhoff_von_neumann(stuffed_list)


#: Oracle class per scheduler name (the names :mod:`repro.api` uses).
REFERENCE_SCHEDULERS = {
    "solstice": ReferenceSolsticeScheduler,
    "tms": ReferenceTmsScheduler,
    "edmond": ReferenceEdmondScheduler,
    "bvn": ReferenceBvnScheduler,
}
