"""Hungarian assignment kernel (vectorized twin of the Hungarian oracle).

The reference is the classic JV shortest-augmenting-path formulation with
an O(n) Python scan over columns per Dijkstra step.  The kernel keeps the
outer control flow — one augmentation per row, one column marked used per
step — and compresses the inner scan to five ndarray dispatches whose
observable decisions are identical to the reference:

* the tentative reduced cost is ``(cost_row − u[i0]) − v``, the same two
  subtractions in the same order — valid because during one augmentation
  every term is static (``u[i0]`` belongs to a freshly reached row and
  ``v[j]`` of an unused column only changes once the column is used);
* ``np.fmin`` replaces the compare-and-copy pair: elementwise it keeps
  exactly the value the reference's strict ``<`` update keeps (a ±0.0
  sign flip on ties is possible but invisible — every downstream use is
  a comparison, and ``−0.0`` orders identically to ``+0.0``);
* used columns are folded out *in place*: their ``v`` slot becomes
  ``−1e300`` so their tentative cost is astronomically large, which keeps
  them out of ``argmin`` without a mask (``argmin`` ties break to the
  first index, matching the reference's ascending scan with strict
  ``<``);
* the predecessor array is not maintained at all — for the handful of
  columns on the augmenting path, the reference's ``way`` entry is
  recovered afterwards by replaying that column's scalar update sequence
  in Python, bit for bit;
* dual updates are deferred to the end of the augmentation and replayed
  per element as the same ordered sequence of ``± delta`` additions the
  reference performs (zero deltas are skipped — a ``± 0.0`` add/subtract
  is an exact no-op on values that are never ``−0.0``, which holds for
  the duals by induction from their ``+0.0`` start).

The result: identical assignments wherever the reference's own float
decisions are reproduced, which is everywhere — the differential tests
drive both through hundreds of random matrices and assert equality.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.perf import scheduler_counters

_INF = float("inf")

#: Sentinel folded into ``v`` at used columns: tentative costs become
#: ~1e300, far above any genuine candidate, so a plain ``argmin`` skips
#: them.  Genuine costs are bounded by the demand scale (« 1e300), so no
#: overflow and no collision is possible.
_USED_FOLD = -1e300


def min_cost_assignment(cost) -> Dict[int, int]:
    """Minimum-cost perfect assignment of rows to columns.

    Accepts a square ndarray or nested sequence; returns ``{row: column}``.
    Mirrors ``hungarian.min_cost_assignment`` including its ValueError on
    non-square input.
    """
    try:
        a = np.asarray(cost, dtype=np.float64)
    except ValueError:
        # Ragged nested rows fail densification; report them the same way
        # the reference reports any non-square input.
        raise ValueError("cost matrix must be square") from None
    if a.size == 0 and a.ndim <= 1:
        return {}
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("cost matrix must be square")
    n = a.shape[0]
    scheduler_counters.inc("hungarian_solves")

    # Column-extended cost: slot 0 is the virtual start column of the JV
    # formulation; its value is never read (folded out before first use).
    ext = np.zeros((n, n + 1), dtype=np.float64)
    ext[:, 1:] = a
    rows = [ext[k] for k in range(n)]

    u: List[float] = [0.0] * (n + 1)  # scalar reads only — plain floats
    v_py: List[float] = [0.0] * (n + 1)  # authoritative column potentials
    v = np.zeros(n + 1, dtype=np.float64)  # ndarray twin with used-folds
    assignment: List[int] = [0] * (n + 1)  # column -> row (1-indexed)

    minv = np.empty(n + 1, dtype=np.float64)
    cur = np.empty(n + 1, dtype=np.float64)

    for i in range(1, n + 1):
        assignment[0] = i
        j0 = 0
        minv[:] = _INF
        used_cols: List[int] = []  # in join order
        joined_rows: List[int] = []
        joined_at: Dict[int, int] = {}
        deltas: List[float] = []
        while True:
            joined_at[j0] = len(used_cols)
            i0 = assignment[j0]
            used_cols.append(j0)
            joined_rows.append(i0)
            v[j0] = _USED_FOLD
            minv[j0] = _INF
            row = rows[i0 - 1]
            u_i0 = u[i0]
            if u_i0 != 0.0:
                np.subtract(row, u_i0, out=cur)
                np.subtract(cur, v, out=cur)
            else:
                # x − (+0.0) is a bitwise no-op and u is never −0.0
                # (it starts at +0.0 and a float sum only yields −0.0
                # from −0.0 operands), so the first subtract can go.
                np.subtract(row, v, out=cur)
            np.fmin(minv, cur, out=minv)
            j1 = int(minv.argmin())
            delta = float(minv[j1])
            deltas.append(delta)
            if delta != 0.0 or math.copysign(1.0, delta) < 0.0:
                # Skipping an exact +0.0 subtraction is a bitwise no-op;
                # −0.0 must still be applied (it flips −0.0 slots to +0.0
                # exactly as the reference does).
                np.subtract(minv, delta, out=minv)
            j0 = j1
            if assignment[j0] == 0:
                break

        # --- augment along the reference's predecessor chain -----------
        # way[j] is recovered per path column by replaying its scalar
        # update sequence: same costs, same strict <, same delta drains.
        total = len(used_cols)
        while j0:
            limit = joined_at.get(j0, total)
            vj = v_py[j0]
            mv = _INF
            pred = 0
            for t in range(limit):
                i_t = joined_rows[t]
                c = (float(ext[i_t - 1, j0]) - u[i_t]) - vj
                if c < mv:
                    mv = c
                    pred = used_cols[t]
                mv -= deltas[t]
            assignment[j0] = assignment[pred]
            j0 = pred

        # --- deferred dual updates: exact per-element replay -----------
        nonzero = [
            (t, d) for t, d in enumerate(deltas) if d != 0.0
        ]
        start = 0
        for k in range(total):
            jc = used_cols[k]
            ir = joined_rows[k]
            while start < len(nonzero) and nonzero[start][0] < k:
                start += 1
            if start < len(nonzero):
                uv = u[ir]
                vv = v_py[jc]
                for t in range(start, len(nonzero)):
                    d = nonzero[t][1]
                    uv += d
                    vv -= d
                u[ir] = uv
                v_py[jc] = vv
            v[jc] = v_py[jc]  # unfold the sentinel

    return {assignment[j] - 1: j - 1 for j in range(1, n + 1)}


def max_weight_assignment(weight) -> Dict[int, int]:
    """Maximum-weight perfect assignment (negated costs)."""
    a = np.asarray(weight, dtype=np.float64)
    return min_cost_assignment(-a)


def max_weight_matching(weight) -> Dict[int, int]:
    """Maximum-weight matching: perfect assignment minus zero-weight pairs."""
    a = np.asarray(weight, dtype=np.float64)
    if a.size and float(a.min()) < 0:
        raise ValueError("demand weights must be non-negative")
    perfect = max_weight_assignment(a)
    return {i: j for i, j in perfect.items() if a[i, j] > 0}
