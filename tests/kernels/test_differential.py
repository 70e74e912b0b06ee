"""Differential tests: numpy kernels vs the pure-Python oracles.

Two layers of evidence that the kernels are drop-in:

* primitive level (hypothesis) — random sparse / skewed / doubly
  stochastic matrices through each kernel and its reference twin:
  Hungarian assignments are identical *and* optimal, Hopcroft–Karp
  agrees on matchability and matchings, QuickStuff is bit-for-bit
  identical, BvN terms match and drain exactly, Sinkhorn agrees within
  ulp-level tolerance;
* scheduler level (seeded grid) — Solstice, TMS, Edmond, and BvN
  schedules computed by :mod:`repro.schedulers` and by their oracle
  pipelines (:mod:`tests.oracles.schedulers`) for 200+ random demand
  matrices must have identical circuit sequences with durations within
  1e-9 relative.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.assignment import min_cost_assignment as kernel_assignment
from repro.kernels.decomposition import birkhoff_von_neumann as kernel_bvn
from repro.kernels.matching import matching_from_matrix as kernel_matching
from repro.kernels.matrix import quick_stuff as kernel_quick_stuff
from repro.kernels.matrix import sinkhorn_scale as kernel_sinkhorn
from repro.schedulers import (
    BvnScheduler,
    EdmondScheduler,
    SolsticeScheduler,
    TmsScheduler,
)
from tests.oracles.birkhoff_reference import (
    birkhoff_von_neumann as reference_bvn,
    reconstruct,
)
from tests.oracles.hopcroft_karp_reference import (
    matching_from_matrix as reference_matching,
    maximum_bipartite_matching,
)
from tests.oracles.hungarian_reference import (
    min_cost_assignment as reference_assignment,
)
from tests.oracles.schedulers import REFERENCE_SCHEDULERS
from tests.oracles.stuffing_reference import (
    quick_stuff as reference_quick_stuff,
    sinkhorn_scale as reference_sinkhorn,
)

# ----------------------------------------------------------------------
# Matrix strategies: sparse, skewed, and doubly stochastic
# ----------------------------------------------------------------------


@st.composite
def sparse_matrices(draw, max_n=7):
    """Mostly-zero non-negative matrices (dyadic values: exact floats)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.sampled_from([0.2, 0.4, 0.7]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    return [
        [
            rng.randint(1, 512) / 64.0 if rng.random() < density else 0.0
            for _ in range(n)
        ]
        for _ in range(n)
    ]


@st.composite
def skewed_matrices(draw, max_n=6):
    """Heavy-tailed magnitudes spanning several orders of magnitude."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    return [
        [rng.random() * 10.0 ** rng.randint(-3, 3) for _ in range(n)]
        for _ in range(n)
    ]


@st.composite
def doubly_stochastic_matrices(draw, max_n=6):
    """Strictly positive matrices Sinkhorn-scaled to doubly stochastic."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    positive = [[rng.random() + 0.05 for _ in range(n)] for _ in range(n)]
    return reference_sinkhorn(positive, iterations=200)


# ----------------------------------------------------------------------
# Hungarian
# ----------------------------------------------------------------------


class TestHungarianDifferential:
    @given(skewed_matrices())
    @settings(max_examples=80, deadline=None)
    def test_assignments_identical(self, matrix):
        assert kernel_assignment(matrix) == reference_assignment(matrix)

    @given(sparse_matrices(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_assignments_identical_sparse(self, matrix):
        assert kernel_assignment(matrix) == reference_assignment(matrix)

    @given(skewed_matrices(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_kernel_is_optimal(self, matrix):
        """Brute-force check: the kernel's total cost is the minimum."""
        n = len(matrix)
        assignment = kernel_assignment(matrix)
        total = sum(matrix[i][j] for i, j in assignment.items())
        best = min(
            sum(matrix[i][perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n))
        )
        assert total == pytest.approx(best, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Hopcroft–Karp
# ----------------------------------------------------------------------


class TestMatchingDifferential:
    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_matchings_identical(self, matrix):
        for threshold in (0.0, 1.0, 4.0):
            assert kernel_matching(matrix, threshold=threshold) == reference_matching(
                matrix, threshold=threshold
            )

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_perfect_iff_maximum_matching_is_full(self, matrix):
        """The kernel finds a perfect matching exactly when one exists."""
        n = len(matrix)
        adjacency = {
            i: [j for j in range(n) if matrix[i][j] > 0.0] for i in range(n)
        }
        maximum = maximum_bipartite_matching(adjacency)
        result = kernel_matching(matrix, threshold=0.0)
        if len(maximum) == n:
            assert result is not None and len(result) == n
        else:
            assert result is None


# ----------------------------------------------------------------------
# QuickStuff / Sinkhorn
# ----------------------------------------------------------------------


class TestStuffingDifferential:
    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_quick_stuff_bitwise_identical(self, matrix):
        ref_stuffed, ref_dummy = reference_quick_stuff(matrix)
        ker_stuffed, ker_dummy = kernel_quick_stuff(matrix)
        assert ker_stuffed.tolist() == ref_stuffed
        assert ker_dummy.tolist() == ref_dummy

    @given(skewed_matrices())
    @settings(max_examples=60, deadline=None)
    def test_quick_stuff_bitwise_identical_skewed(self, matrix):
        ref_stuffed, _ = reference_quick_stuff(matrix)
        ker_stuffed, _ = kernel_quick_stuff(matrix)
        assert ker_stuffed.tolist() == ref_stuffed

    @given(sparse_matrices(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_sinkhorn_within_ulp_tolerance(self, matrix):
        reference = np.asarray(reference_sinkhorn(matrix, iterations=60))
        kernel = kernel_sinkhorn(matrix, iterations=60)
        np.testing.assert_allclose(kernel, reference, rtol=1e-9, atol=1e-12)
        # Zeros must be preserved exactly — support decides matchability.
        assert ((kernel == 0.0) == (reference == 0.0)).all()


# ----------------------------------------------------------------------
# Birkhoff–von-Neumann
# ----------------------------------------------------------------------


class TestBvnDifferential:
    @given(doubly_stochastic_matrices())
    @settings(max_examples=40, deadline=None)
    def test_terms_identical_and_drain_exact(self, matrix):
        ref_terms = reference_bvn(matrix)
        ker_terms = kernel_bvn(matrix)
        assert len(ker_terms) == len(ref_terms)
        for ours, theirs in zip(ker_terms, ref_terms):
            assert ours.permutation == theirs.permutation
            assert ours.weight == pytest.approx(theirs.weight, rel=1e-9, abs=1e-12)
        # Exact drain: the terms rebuild the matrix.
        n = len(matrix)
        rebuilt = reconstruct(ker_terms, n)
        np.testing.assert_allclose(rebuilt, matrix, rtol=1e-6, atol=1e-9)

    @given(sparse_matrices(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_terms_identical_after_stuffing(self, matrix):
        stuffed, _ = reference_quick_stuff(matrix)
        if sum(stuffed[0]) <= 0.0:
            return
        ref_terms = reference_bvn(stuffed)
        ker_terms = kernel_bvn(stuffed)
        assert [t.permutation for t in ker_terms] == [
            t.permutation for t in ref_terms
        ]
        assert [t.weight for t in ker_terms] == pytest.approx(
            [t.weight for t in ref_terms], rel=1e-9
        )


# ----------------------------------------------------------------------
# Degenerate inputs: same answer or the same error
# ----------------------------------------------------------------------

_DEGENERATE = {
    "matching-negative": ("max_weight_matching", [[-1.0, 0.0], [0.0, 1.0]]),
    "assignment-empty": ("min_cost_assignment", []),
    "assignment-non-square": ("min_cost_assignment", [[1.0, 2.0]]),
    "stuff-negative": ("quick_stuff", [[-1.0]]),
    "stuff-non-square": ("quick_stuff", [[1.0, 2.0]]),
    "sinkhorn-non-square": ("sinkhorn_scale", [[1.0, 2.0]]),
    "bvn-unequal-line-sums": ("birkhoff_von_neumann", [[1.0, 0.0], [0.0, 2.0]]),
    "bvn-empty": ("birkhoff_von_neumann", []),
    "no-perfect-matching": ("matching_from_matrix", [[1.0, 1.0], [0.0, 0.0]]),
}


def _outcome(fn, matrix):
    try:
        result = fn(matrix)
    except ValueError as error:
        return "ValueError", str(error)
    if isinstance(result, tuple):
        return tuple(np.asarray(part).tolist() for part in result)
    return result


@pytest.mark.parametrize("case", sorted(_DEGENERATE))
def test_degenerate_input_matches_oracle(case):
    """Empty, negative, non-square and undecomposable matrices: each kernel
    returns what its oracle returns, or raises the same ``ValueError``."""
    import repro.kernels as kernels
    from tests.oracles import (
        birkhoff_reference,
        hopcroft_karp_reference,
        hungarian_reference,
        stuffing_reference,
    )

    name, matrix = _DEGENERATE[case]
    # Defining modules first: birkhoff_reference re-imports two helpers.
    oracle = next(
        getattr(module, name)
        for module in (
            hungarian_reference,
            stuffing_reference,
            hopcroft_karp_reference,
            birkhoff_reference,
        )
        if hasattr(module, name)
    )
    assert _outcome(getattr(kernels, name), matrix) == _outcome(oracle, matrix)


# ----------------------------------------------------------------------
# Scheduler level: 200+ random demand matrices, kernels vs oracles
# ----------------------------------------------------------------------

_SCHEDULERS = {
    "solstice": SolsticeScheduler,
    "tms": TmsScheduler,
    "edmond": EdmondScheduler,
    "bvn": BvnScheduler,
}


def _random_demand(seed):
    """Random sparse demand over a random port subset (seconds scale)."""
    rng = random.Random(seed)
    ports = rng.randint(2, 9)
    density = rng.choice([0.25, 0.5, 0.9])
    demand = {}
    for src in range(ports):
        for dst in range(ports):
            if rng.random() < density:
                demand[(src, dst)] = rng.random() * 2.0 + 0.01
    if not demand:
        demand[(0, 1)] = 1.0
    return demand, ports


def _run(name, demand, ports, oracle=False):
    registry = REFERENCE_SCHEDULERS if oracle else _SCHEDULERS
    return registry[name]().schedule(demand, ports)


@pytest.mark.parametrize("name", sorted(_SCHEDULERS))
@pytest.mark.parametrize("seed", range(52))
def test_schedules_equivalent_across_backends(name, seed):
    """4 schedulers × 52 seeds = 208 matrices; 0 mismatches allowed."""
    demand, ports = _random_demand(seed * 7919 + sum(map(ord, name)))
    kernel = _run(name, demand, ports)
    reference = _run(name, demand, ports, oracle=True)
    assert len(kernel.assignments) == len(reference.assignments)
    for ours, theirs in zip(kernel.assignments, reference.assignments):
        assert ours.circuits == theirs.circuits
        assert ours.duration == pytest.approx(
            theirs.duration, rel=1e-9, abs=1e-12
        )
    # Both cover the demand they were asked to schedule.
    assert kernel.covers(demand)


@pytest.mark.parametrize(
    "demand",
    [
        # BigSlice clamps a ~6.9 ns residual on (0, 1) to zero.
        {
            (0, 2): 1.0355005354621292,
            (0, 0): 1.0,
            (2, 0): 0.9865868962209149,
            (0, 1): 0.001,
            (2, 1): 4.963976132313911,
            (1, 1): 3.0,
        },
        # The clamps' line-sum drift strands BvN on the residual.
        {
            (0, 2): 2.035500535462129,
            (0, 0): 1.0,
            (1, 0): 0.9865868962209149,
            (0, 1): 0.001,
            (1, 1): 4.963976132313911,
            (1, 2): 4.0,
        },
    ],
    ids=["clamp-shortfall", "stranded-tail"],
)
def test_solstice_tolerance_repairs_match_oracle(demand):
    """The top-up and the restuffed tail run identically down both paths."""
    kernel = _run("solstice", demand, 3)
    reference = _run("solstice", demand, 3, oracle=True)
    assert kernel.assignments == reference.assignments
    assert kernel.covers(demand)


def test_solstice_covers_demand_exactly():
    """Kernel Solstice schedules cover every demand entry (hypothesis-free
    spot grid on top of the seeded equivalence sweep)."""
    for seed in range(12):
        demand, ports = _random_demand(seed + 31337)
        schedule = _run("solstice", demand, ports)
        assert schedule.covers(demand)
