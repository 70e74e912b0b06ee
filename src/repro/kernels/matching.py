"""Perfect-matching kernel over ndarray support (Hopcroft–Karp twin).

The BvN decomposition extracts one perfect matching per term — up to
``(n−1)² + 1`` of them for a dense 150×150 matrix — and the reference
rebuilds an adjacency dict from the full matrix every time, an O(n²)
Python scan per term that dominates the TMS baseline.
:class:`SupportMatcher` keeps the support three ways: a mutable boolean
ndarray (cheap membership for ``remove_edge``), one Python integer
bitmask per row (greedy matching and BFS layering), and one ascending
column list per row (the DFS inner loop).  ``row_mask & free_mask``
isolates a row's free columns in a single big-int AND, and the lowest
set bit *is* the first free column in ascending order — the exact
vertex the reference algorithm picks.  Successive BvN terms pay only
for the handful of edges each subtraction actually removes.

Equivalence with the reference Hopcroft–Karp is structural:

* The reference's **first phase** (all left vertices free) degenerates
  to greedy first-free-column in row order — every DFS sees only
  vertices at distance 0, so the recursive branch
  (``distance == distance[u] + 1``, i.e. ``0 == 1``) can never fire.
  The kernel runs that greedy pass directly via the bitmasks.
* **Later phases** replay the reference exactly: the bitmask-layered
  BFS assigns the same shortest distances as the reference's FIFO BFS
  (unit edges from multiple sources), and the augmenting DFS is the
  reference's recursion made iterative, walking the same ascending
  per-row column lists — same order, same ``distance[u] = INF``
  poisoning on failure.

Since a maximum matching's *cardinality* is unique, the perfect-or-None
answer always agrees; when a perfect matching exists the row→column map
itself is identical by the argument above.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.perf import scheduler_counters

_INF = float("inf")


class SupportMatcher:
    """Maximum bipartite matching over a mutable boolean support matrix.

    Args:
        support: square boolean ndarray; ``support[i, j]`` is True when
            row ``i`` may be matched to column ``j``.  The matcher keeps a
            reference and mutates it through :meth:`remove_edge`.
    """

    __slots__ = ("_support", "_n", "_masks", "_cols", "_bits")

    def __init__(self, support: np.ndarray) -> None:
        if support.ndim != 2 or support.shape[0] != support.shape[1]:
            raise ValueError("support matrix must be square")
        if support.dtype != np.bool_:
            support = support.astype(np.bool_)
        self._support = support
        n = support.shape[0]
        self._n = n
        self._bits: List[int] = [1 << v for v in range(n)]
        if n:
            packed = np.packbits(support, axis=1, bitorder="little").tobytes()
            stride = (n + 7) // 8
            self._masks: List[int] = [
                int.from_bytes(packed[k * stride : (k + 1) * stride], "little")
                for k in range(n)
            ]
            # Ascending column lists mirror the masks: the DFS iterates
            # these (a C-level list walk per edge beats big-int extraction).
            self._cols: List[List[int]] = [
                np.flatnonzero(row).tolist() for row in support
            ]
        else:
            self._masks = []
            self._cols = []

    # ------------------------------------------------------------------
    def remove_edge(self, row: int, col: int) -> None:
        """Drop one support edge (a drained BvN cell)."""
        if self._support[row, col]:
            self._support[row, col] = False
            self._masks[row] &= ~self._bits[col]
            self._cols[row].remove(col)

    # ------------------------------------------------------------------
    def perfect_matching_array(self) -> Optional[np.ndarray]:
        """Row→column perfect matching as an ``intp`` array, or None.

        Cold-started on every call (the reference decomposes each term
        from scratch, and a warm-started repair would pick a *different*
        perfect matching); only the support bookkeeping is incremental.
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.intp)
        match_left = [-1] * n
        match_right = [-1] * n
        masks = self._masks

        # Phase 1 — greedy first-free-column (== reference's first round).
        free_mask = (1 << n) - 1
        free_rows: List[int] = []
        for i in range(n):
            candidates = masks[i] & free_mask
            if candidates:
                low = candidates & -candidates
                j = low.bit_length() - 1
                match_left[i] = j
                match_right[j] = i
                free_mask ^= low
            else:
                free_rows.append(i)

        # Later phases — reference Hopcroft–Karp on the residual graph.
        if free_rows:
            self._augment_phases(match_left, match_right)

        if -1 in match_left:
            return None
        scheduler_counters.inc("matchings_extracted")
        return np.array(match_left, dtype=np.intp)

    def perfect_matching(self) -> Optional[Dict[int, int]]:
        """Row→column perfect matching as a dict, or None (reference API)."""
        perm = self.perfect_matching_array()
        if perm is None:
            return None
        return {i: int(j) for i, j in enumerate(perm.tolist())}

    # ------------------------------------------------------------------
    def _augment_phases(
        self, match_left: List[int], match_right: List[int]
    ) -> None:
        """BFS-layer + DFS-augment until no augmenting path remains.

        The layering runs on the row bitmasks: OR-ing the current layer's
        masks yields every adjacent column in one big-int op, and matched
        columns map back to the next layer of left vertices through
        ``match_right``.  The layer sets (and therefore the ``dist``
        labels the DFS consumes) are identical to the reference's FIFO
        BFS — unit edges from multiple sources.
        """
        n = self._n
        masks = self._masks
        dist: List[float] = [0.0] * n
        while True:
            free = [u for u in range(n) if match_left[u] == -1]
            if not free:
                return
            for u in range(n):
                dist[u] = _INF
            for u in free:
                dist[u] = 0.0
            bits = self._bits
            free_cols = 0
            for v in range(n):
                if match_right[v] == -1:
                    free_cols |= bits[v]
            found = False
            depth = 0.0
            layer = free
            while layer:
                cols = 0
                for u in layer:
                    cols |= masks[u]
                if cols & free_cols:
                    found = True
                remaining = cols & ~free_cols
                depth += 1.0
                nxt: List[int] = []
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    partner = match_right[low.bit_length() - 1]
                    if dist[partner] == _INF:
                        dist[partner] = depth
                        nxt.append(partner)
                layer = nxt
            if not found:
                return
            for u in range(n):
                if match_left[u] == -1:
                    self._dfs(u, dist, match_left, match_right)

    def _dfs(
        self,
        u: int,
        dist: List[float],
        match_left: List[int],
        match_right: List[int],
    ) -> bool:
        """Augment from ``u`` along the BFS layering.

        Iterative rendition of the reference recursion — same ascending
        edge order, same ``dist[u] = INF`` poisoning on failure, same
        match flips on success — with the per-edge Python call replaced
        by an explicit frame stack (the BvN drain makes hundreds of
        thousands of these calls per decomposition).
        """
        cols = self._cols
        stack: List = []
        row = cols[u]
        idx = 0
        nxt = dist[u] + 1.0
        while True:
            while idx < len(row):
                v = row[idx]
                idx += 1
                partner = match_right[v]
                if partner == -1:
                    # Success: flip the matched edges along the path.
                    match_left[u] = v
                    match_right[v] = u
                    while stack:
                        u, v, row, idx, nxt = stack.pop()
                        match_left[u] = v
                        match_right[v] = u
                    return True
                if dist[partner] == nxt:
                    # Descend into the partner's frame.
                    stack.append((u, v, row, idx, nxt))
                    u = partner
                    row = cols[u]
                    idx = 0
                    nxt = dist[u] + 1.0
            dist[u] = _INF
            if not stack:
                return False
            u, v, row, idx, nxt = stack.pop()


def matching_from_matrix(
    matrix, threshold: float = 0.0
) -> Optional[Dict[int, int]]:
    """Perfect matching of rows to columns where ``matrix[i][j] > threshold``.

    Kernel twin of ``hopcroft_karp.matching_from_matrix``: one vectorized
    comparison builds the support, then :class:`SupportMatcher` runs.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        if a.size == 0:
            a = np.zeros((0, 0), dtype=np.float64)
        else:
            raise ValueError("matrix must be two-dimensional")
    return SupportMatcher(a > threshold).perfect_matching()
