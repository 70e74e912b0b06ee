"""Birkhoff–von-Neumann decomposition.

The Birkhoff theorem: every doubly stochastic matrix is a convex
combination of permutation matrices.  The constructive decomposition —
repeatedly extract a perfect matching over the positive support, weight it
by the minimum matched entry, subtract, repeat — terminates in at most
``(n-1)² + 1`` terms because each step zeroes at least one entry.

This is the engine of the TMS baseline scheduler and, with weights
interpreted as slot durations, of the classic Time Slot Assignment
literature the paper contrasts Sunflow against.  It also solves the
``δ = 0`` intra-Coflow problem optimally (§2.3).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.kernels.decomposition import BvnTerm
from tests.oracles.hopcroft_karp_reference import matching_from_matrix
from tests.oracles.stuffing_reference import has_equal_line_sums, line_sums

#: Entries below this fraction of the matrix scale are treated as zero.
_ZERO_TOLERANCE = 1e-12


def birkhoff_von_neumann(
    matrix: Sequence[Sequence[float]],
    max_terms: int = 0,
) -> List[BvnTerm]:
    """Decompose a matrix with equal line sums into weighted permutations.

    Args:
        matrix: square non-negative matrix whose row sums all equal its
            column sums (doubly stochastic after normalization).  Callers
            with arbitrary demand should stuff first
            (:func:`tests.oracles.stuffing_reference.quick_stuff` or Sinkhorn).
        max_terms: optional cap on the number of terms (0 = no cap); used
            by schedulers that truncate long decompositions.

    Returns:
        Terms whose weighted permutations sum back to ``matrix`` (exactly,
        up to floating-point error) when not truncated.

    Raises:
        ValueError: if line sums are unequal, or no perfect matching exists
            over the positive entries (cannot happen for equal line sums by
            the Birkhoff–König argument, but guards numerical corner cases).
    """
    n = len(matrix)
    if n == 0:
        return []
    if not has_equal_line_sums(matrix, tolerance=1e-5):
        raise ValueError(
            "BvN requires equal row/column sums; stuff the matrix first"
        )
    work = [list(map(float, row)) for row in matrix]
    rows, _ = line_sums(work)
    scale = max(max(rows), 1e-30)
    zero = scale * _ZERO_TOLERANCE

    terms: List[BvnTerm] = []
    remaining = rows[0]
    while remaining > zero:
        matching = matching_from_matrix(work, threshold=zero)
        if matching is None:
            if remaining <= scale * 1e-6:
                # Floating-point crumbs left by the caller's subtractions;
                # the matrix is drained for all practical purposes.
                break
            raise ValueError(
                "no perfect matching over positive entries; "
                "matrix is not decomposable (check stuffing/tolerances)"
            )
        weight = min(work[i][j] for i, j in matching.items())
        terms.append(BvnTerm(weight=weight, permutation=dict(matching)))
        for i, j in matching.items():
            work[i][j] -= weight
            if work[i][j] < zero:
                work[i][j] = 0.0
        remaining -= weight
        if max_terms and len(terms) >= max_terms:
            break
    return terms


def reconstruct(terms: Sequence[BvnTerm], n: int) -> List[List[float]]:
    """Sum ``weight × permutation`` back into an ``n × n`` matrix."""
    matrix = [[0.0] * n for _ in range(n)]
    for term in terms:
        for i, j in term.permutation.items():
            matrix[i][j] += term.weight
    return matrix
