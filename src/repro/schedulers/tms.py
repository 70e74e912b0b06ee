"""TMS — Traffic Matrix Scheduling (Porter et al., SIGCOMM 2013; paper §3.1.1).

TMS drives the Mordia microsecond switch: it scales the demand matrix into
a doubly stochastic *bandwidth-allocation* matrix via Sinkhorn–Knopp,
Birkhoff–von-Neumann-decomposes it into weighted permutations, and holds
each permutation for a slot proportional to its weight.

Sinkhorn needs strictly positive support to converge, so zero entries are
first filled with a small uniform demand (the Mordia construction).  This
pre-processing "heavily modif[ies] the original demand matrix" (paper
§3.1.1): the doubly stochastic shares no longer match the requested
proportions, so to actually drain a Coflow the schedule length ``W`` must
stretch until the *worst-served* circuit gets its bytes —
``W = max over real demand of d_ij / s_ij`` — over-serving everything
else.  For sparse Coflows the waste is dramatic (a single flow receives a
``1/n`` share, so TMS spends ``n×`` the needed time), which is exactly why
the paper finds TMS ≈ 2× slower than Solstice.

The pipeline runs on the numpy kernel layer (ndarray demand from
:func:`compact_demand` through Sinkhorn, BvN, and the week stretch).
The differential tests hold it to the pure-Python oracle pipeline,
which overrides :meth:`TmsScheduler._decompose`; TMS durations carry a
1e-9 relative tolerance there, and assignments are identical.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from repro.kernels.decomposition import birkhoff_von_neumann as _bvn_kernel
from repro.kernels.matrix import sinkhorn_scale as _sinkhorn_kernel
from repro.schedulers.base import (
    Assignment,
    AssignmentSchedule,
    AssignmentScheduler,
    Circuit,
    compact_demand,
    top_up,
)

_ZERO = 1e-12


class TmsScheduler(AssignmentScheduler):
    """Zero-fill + Sinkhorn scaling + BvN with proportional durations.

    Args:
        fill_fraction: zero entries are filled with ``fill_fraction × max
            entry`` before scaling, guaranteeing Sinkhorn convergence (the
            Mordia construction).  Larger values distort the demand more.
        sinkhorn_iterations: scaling iterations (the matrix is strictly
            positive, so convergence is geometric).
    """

    name = "tms"

    def __init__(
        self, fill_fraction: float = 0.01, sinkhorn_iterations: int = 500
    ) -> None:
        if not 0 < fill_fraction <= 1:
            raise ValueError(f"fill_fraction must be in (0, 1], got {fill_fraction!r}")
        self.fill_fraction = fill_fraction
        self.sinkhorn_iterations = sinkhorn_iterations

    def schedule(
        self, demand_times: Mapping[Circuit, float], num_ports: int
    ) -> AssignmentSchedule:
        matrix, src_labels, dst_labels = compact_demand(demand_times)
        if matrix.size == 0:
            return AssignmentSchedule(assignments=[])
        terms, week = self._decompose(matrix)
        assignments: List[Assignment] = []
        for term in terms:
            duration = term.weight * week
            if duration <= _ZERO:
                continue
            circuits = []
            for i, j in sorted(term.permutation.items()):
                src, dst = src_labels[i], dst_labels[j]
                if src < 0 and dst < 0:
                    continue
                circuits.append((src, dst))
            assignments.append(Assignment(circuits=tuple(circuits), duration=duration))

        # Numerical safety net: the BvN loop may truncate a ≤1e-6 crumb of
        # the stochastic matrix; top up any real demand left uncovered with
        # a dedicated slot so executors always finish.
        return top_up(assignments, demand_times, _ZERO)

    def _decompose(self, matrix: np.ndarray) -> Tuple[list, float]:
        """Sinkhorn + BvN + week stretch over ndarrays."""
        peak = float(matrix.max())
        if peak <= _ZERO:
            return [], 0.0
        # Mordia's pre-processing: make the matrix strictly positive so the
        # Sinkhorn scaling converges to a doubly stochastic matrix.
        fill = peak * self.fill_fraction
        filled = np.where(matrix > _ZERO, matrix, fill)
        stochastic = _sinkhorn_kernel(filled, iterations=self.sinkhorn_iterations)

        # Stretch the schedule until the worst-served *real* demand drains.
        mask = matrix > _ZERO
        week = float((matrix[mask] / stochastic[mask]).max()) if mask.any() else 0.0
        return _bvn_kernel(stochastic), week
