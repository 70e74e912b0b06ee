"""Vectorized demand-matrix kernels for the baseline schedulers.

The assignment-based baselines the paper sweeps Sunflow against (Solstice,
TMS, Edmond — see :mod:`repro.schedulers`) all reduce to dense linear
algebra over an ``n × n`` demand matrix: line sums and stuffing, repeated
bipartite matchings, Hungarian assignments, and Birkhoff–von-Neumann
decompositions.  This package is the numpy-backed implementation of that
substrate; demand matrices flow through it as contiguous ``float64``
ndarrays, canonicalized once at the boundary by :func:`as_demand_matrix`.

**Backend contract.**  Every kernel has a pure-Python twin retained in the
``repro.matching.*_reference`` modules (the implementations that shipped
before this layer, kept verbatim as behavioural oracles — the
``ReferencePortReservationTable`` pattern).  The kernels follow the
reference algorithms step for step, including iteration order and
tie-breaking, so both sides emit *identical* assignments; differential
tests in ``tests/kernels/`` enforce this on random sparse, skewed, and
doubly-stochastic matrices.  The only tolerated divergence is last-ulp
float drift where numpy's pairwise summation replaces Python's sequential
``sum`` (Sinkhorn line sums), which the schedulers absorb well inside
their ``1e-9`` duration tolerance.

**Runtime selection.**  :mod:`repro.backend` picks the backend (its
names are re-exported here); every backend but ``python`` uses these
kernels.

**Packet-simulator kernels.**  :mod:`repro.kernels.allocation` extends
the layer to the fluid packet simulator: struct-of-arrays flow state
(``FlowArrays``) with vectorized Varys MADD, Aalo D-CLAS, completion
search, and drain passes, dispatched by
:func:`repro.sim.packet_sim.simulate_packet` on the same backend switch.
Unlike the scheduler kernels these promise *strictly* bitwise-identical
event sequences and CCT records against the dict-based reference engine
— no tolerated drift.
"""

from __future__ import annotations

import numpy as np

from repro.backend import BACKENDS, active_backend, use_backend
from repro.backend import ENV as BACKEND_ENV


def numpy_enabled() -> bool:
    """True when the numpy kernel layer is active.

    The ``native`` backend only swaps the Sunflow planner and PRT
    transactions; the scheduler/packet kernels keep their numpy
    implementations, so every backend except ``python`` enables them.
    """
    return active_backend() != "python"


def as_demand_matrix(matrix) -> np.ndarray:
    """Canonicalize a demand matrix to a square, contiguous ``float64`` array.

    The single dtype boundary of the kernel layer: nested lists, tuples,
    and ndarrays of any float/int dtype all land on the same canonical
    form, and an already-canonical array passes through *without copying*
    (callers that mutate must copy explicitly, exactly as with the
    reference helpers that return fresh lists).

    Raises:
        ValueError: if the matrix is not square or has negative entries
            (matching the reference helpers' messages).
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        if a.ndim == 1 and a.size == 0:
            # [] densifies to shape (0,) — treat as the empty 0×0 matrix.
            return np.zeros((0, 0), dtype=np.float64)
        raise ValueError("demand matrix must be square")
    if a.size and float(a.min()) < 0:
        raise ValueError("demand must be non-negative")
    return np.ascontiguousarray(a)


from repro.kernels.assignment import (  # noqa: E402
    max_weight_assignment,
    max_weight_matching,
    min_cost_assignment,
)
from repro.kernels.decomposition import birkhoff_von_neumann  # noqa: E402
from repro.kernels.matching import SupportMatcher, matching_from_matrix  # noqa: E402
from repro.kernels.matrix import (  # noqa: E402
    has_equal_line_sums,
    line_sums,
    quick_stuff,
    sinkhorn_scale,
)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "active_backend",
    "numpy_enabled",
    "use_backend",
    "as_demand_matrix",
    "line_sums",
    "has_equal_line_sums",
    "quick_stuff",
    "sinkhorn_scale",
    "matching_from_matrix",
    "SupportMatcher",
    "min_cost_assignment",
    "max_weight_assignment",
    "max_weight_matching",
    "birkhoff_von_neumann",
]
