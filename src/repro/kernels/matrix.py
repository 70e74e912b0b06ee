"""Demand-matrix stuffing kernels (twin of the ``stuffing_reference`` oracle).

``quick_stuff`` is bit-for-bit identical to the reference: line sums are
computed with Python's sequential ``sum`` (pairwise summation would drift
by an ulp and move the stuffing target), and the greedy pour is replayed
with the same float operations in the same order — the reference's
restart-per-row column scan provably visits columns monotonically, so a
single two-pointer walk with at most ``2n − 1`` pours reproduces it in
O(n) instead of O(n²).

``sinkhorn_scale`` is bitwise identical too: line sums use the same
sequential summation (an ulp of pairwise-summation drift is enough to
flip which matched entry is the minimum in the downstream BvN drain,
diverging the whole term sequence at 150 ports), while the O(n²) scaling
multiplies stay vectorized — broadcasting a per-line reciprocal rounds
exactly like the reference's per-element multiply.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels import as_demand_matrix


def sequential_line_sums(a: np.ndarray) -> Tuple[List[float], List[float]]:
    """Row/column sums with Python's left-to-right summation order.

    Bitwise-identical to ``stuffing_reference.line_sums`` — used where a
    sum feeds a control-flow decision that must match the reference
    exactly (the stuffing target, the BvN drain total).  O(n²) Python,
    but called once per decomposition, not per term.
    """
    rows_list = a.tolist()
    rows = [sum(row) for row in rows_list]
    cols = [sum(col) for col in zip(*rows_list)] if rows_list else []
    return rows, cols


def line_sums(a) -> Tuple[List[float], List[float]]:
    """Row sums and column sums of a square matrix (vectorized)."""
    a = as_demand_matrix(a)
    return a.sum(axis=1).tolist(), a.sum(axis=0).tolist()


def has_equal_line_sums(a, tolerance: float = 1e-6) -> bool:
    """True if all row sums and column sums are equal within ``tolerance``."""
    a = as_demand_matrix(a)
    if a.size == 0:
        return True
    rows = a.sum(axis=1)
    cols = a.sum(axis=0)
    reference = float(rows[0])
    scale = max(abs(reference), 1.0)
    bound = tolerance * scale
    return bool(
        np.abs(rows - reference).max() <= bound
        and np.abs(cols - reference).max() <= bound
    )


def quick_stuff(a) -> Tuple[np.ndarray, np.ndarray]:
    """Solstice's QuickStuff: pad with dummy demand to equal line sums.

    Returns ``(stuffed, dummy)`` as float64 ndarrays; see the reference
    docstring for semantics.  The greedy pour consumes rows and columns in
    ascending order; each pour zeroes a row or column deficit, so a
    two-pointer walk performs at most ``2n − 1`` pours.
    """
    work = as_demand_matrix(a).copy()
    n = work.shape[0]
    dummy = np.zeros_like(work)
    if n == 0:
        return work, dummy
    rows, cols = sequential_line_sums(work)
    target = max(rows + cols)
    row_deficit = [target - r for r in rows]
    col_deficit = [target - c for c in cols]
    j = 0
    for i in range(n):
        deficit = row_deficit[i]
        while deficit > 0 and j < n:
            capacity = col_deficit[j]
            if capacity <= 0:
                j += 1
                continue
            pour = min(deficit, capacity)
            work[i, j] += pour
            dummy[i, j] += pour
            deficit -= pour
            capacity -= pour
            col_deficit[j] = capacity
            if capacity <= 0:
                j += 1
    return work, dummy


def sinkhorn_scale(
    a,
    iterations: int = 100,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Sinkhorn–Knopp scaling toward a doubly stochastic matrix.

    Bitwise-identical twin of ``stuffing_reference.sinkhorn_scale``: line
    sums use the reference's sequential summation order (pairwise numpy
    reductions drift by an ulp, and at 150 ports that drift flips which
    matched entry is the minimum inside the downstream BvN drain,
    cascading into a different term sequence), while the O(n²) scaling
    multiplies stay vectorized — ``x * scale`` broadcast row- or
    column-wise rounds exactly like the reference's per-element multiply,
    and skipped lines multiply by exactly 1.0 (a float no-op).  Reports
    the iteration count via :func:`repro.perf.scheduler_counters`
    (``stuffing_iterations``).
    """
    from repro.perf import scheduler_counters

    work = as_demand_matrix(a).copy()
    n = work.shape[0]
    if n == 0:
        return work
    peak = float(work.max())
    if peak > 0:
        work = work / peak
    safe = 1e-300
    ran = 0
    for _ in range(iterations):
        ran += 1
        rows, _ = sequential_line_sums(work)
        scale = np.array([1.0 / r if r > safe else 1.0 for r in rows])
        work *= scale[:, None]
        _, cols = sequential_line_sums(work)
        scale = np.array([1.0 / c if c > safe else 1.0 for c in cols])
        work *= scale[None, :]
        rows, cols = sequential_line_sums(work)
        drift = max(
            [abs(r - 1.0) for r in rows if r > 0]
            + [abs(c - 1.0) for c in cols if c > 0]
            + [0.0]
        )
        if drift <= tolerance:
            break
    scheduler_counters.inc("stuffing_iterations", ran)
    return work
