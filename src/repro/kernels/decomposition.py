"""Birkhoff–von-Neumann decomposition kernel.

The Birkhoff theorem: every doubly stochastic matrix is a convex
combination of permutation matrices.  The constructive decomposition —
repeatedly extract a perfect matching over the positive support, weight
it by the minimum matched entry, subtract, repeat — terminates in at
most ``(n-1)² + 1`` terms because each step zeroes at least one entry.
It is the engine of the TMS and BvN baseline schedulers.

The pure-Python oracle (``tests/oracles/birkhoff_reference.py``)
rebuilds a Python adjacency dict from the full matrix for
every extracted permutation — O(n²) work per term against the
``(n−1)² + 1`` terms a dense 150×150 TMS matrix produces.  The kernel
threads one :class:`~repro.kernels.matching.SupportMatcher` through the
whole drain: the support starts as ``work > zero`` and each term only
*removes* the handful of edges its subtraction actually drained (matched
cells are the only cells that change), so per-term cost collapses to the
matching itself plus a few fancy-indexed vector ops.

Bitwise parity with the reference:

* the equal-line-sums gate and the drain total use sequential Python
  sums (:func:`repro.kernels.matrix.sequential_line_sums`) — numpy's
  pairwise summation could shift a knife-edge gate decision;
* each term's weight is the same ``min`` over the same matched cells,
  the subtraction and the ``< zero`` clamp are the same per-element
  operations, and the support seen by the next matching is exactly the
  reference's rebuilt ``work[i][j] > zero`` adjacency;
* the matcher itself returns the reference Hopcroft–Karp matching (see
  ``repro.kernels.matching``), so terms agree permutation for
  permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.kernels.matching import SupportMatcher
from repro.kernels.matrix import sequential_line_sums
from repro.perf import scheduler_counters

#: Entries below this fraction of the matrix scale are treated as zero
#: (mirrors the oracle's ``_ZERO_TOLERANCE``).
_ZERO_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BvnTerm:
    """One term of the decomposition: ``weight × permutation``.

    ``permutation`` maps row (input port) to column (output port).
    """

    weight: float
    permutation: Dict[int, int]


def birkhoff_von_neumann(matrix, max_terms: int = 0) -> List[BvnTerm]:
    """Decompose a matrix with equal line sums into weighted permutations.

    Twin of the oracle's ``birkhoff_von_neumann``: same gate, same
    tolerances, same crumb-break behaviour, same terms.  Callers with
    arbitrary demand stuff first (:func:`repro.kernels.matrix.quick_stuff`
    or Sinkhorn); ``max_terms`` caps the term count (0 = no cap).

    Raises:
        ValueError: if line sums are unequal, or no perfect matching
            exists over the positive entries before the matrix drains.
    """
    work = np.array(matrix, dtype=np.float64)
    if work.ndim != 2 and work.size == 0:
        return []
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError("demand matrix must be square")
    n = work.shape[0]
    if n == 0:
        return []

    rows, cols = sequential_line_sums(work)
    sums = rows + cols
    reference = sums[0]
    gate_scale = max(abs(reference), 1.0)
    if any(abs(s - reference) > 1e-5 * gate_scale for s in sums):
        raise ValueError(
            "BvN requires equal row/column sums; stuff the matrix first"
        )
    scale = max(max(rows), 1e-30)
    zero = scale * _ZERO_TOLERANCE

    matcher = SupportMatcher(work > zero)
    indices = np.arange(n)
    terms: List[BvnTerm] = []
    remaining = rows[0]
    while remaining > zero:
        perm = matcher.perfect_matching_array()
        if perm is None:
            if remaining <= scale * 1e-6:
                # Floating-point crumbs left by the subtractions; the
                # matrix is drained for all practical purposes.
                break
            raise ValueError(
                "no perfect matching over positive entries; "
                "matrix is not decomposable (check stuffing/tolerances)"
            )
        matched = work[indices, perm]
        weight = float(matched.min())
        terms.append(
            BvnTerm(
                weight=weight,
                permutation={
                    i: int(j) for i, j in enumerate(perm.tolist())
                },
            )
        )
        drained = matched - weight
        drained[drained < zero] = 0.0
        work[indices, perm] = drained
        for i in np.flatnonzero(drained <= zero).tolist():
            matcher.remove_edge(i, int(perm[i]))
        remaining -= weight
        if max_terms and len(terms) >= max_terms:
            break
    scheduler_counters.inc("bvn_permutations", len(terms))
    return terms
