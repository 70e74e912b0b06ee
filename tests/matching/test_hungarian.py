"""Tests for the Hungarian assignment algorithm."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.hungarian_reference import (
    max_weight_assignment,
    max_weight_matching,
    min_cost_assignment,
)


def brute_force_min_cost(cost):
    n = len(cost)
    best = float("inf")
    for permutation in itertools.permutations(range(n)):
        best = min(best, sum(cost[i][permutation[i]] for i in range(n)))
    return best


class TestMinCostAssignment:
    def test_empty(self):
        assert min_cost_assignment([]) == {}

    def test_one_by_one(self):
        assert min_cost_assignment([[7.0]]) == {0: 0}

    def test_classic_example(self):
        cost = [
            [4, 1, 3],
            [2, 0, 5],
            [3, 2, 2],
        ]
        assignment = min_cost_assignment(cost)
        total = sum(cost[i][j] for i, j in assignment.items())
        assert total == 5  # (0,1)+(1,0)+(2,2) = 1+2+2
        assert sorted(assignment.keys()) == [0, 1, 2]
        assert sorted(assignment.values()) == [0, 1, 2]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            min_cost_assignment([[1.0, 2.0]])

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=-50, max_value=50),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, cost):
        assignment = min_cost_assignment(cost)
        total = sum(cost[i][j] for i, j in assignment.items())
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-6)


class TestMaxWeightAssignment:
    def test_prefers_heavy_diagonal(self):
        weight = [
            [10, 1],
            [1, 10],
        ]
        assert max_weight_assignment(weight) == {0: 0, 1: 1}

    def test_prefers_heavy_antidiagonal(self):
        weight = [
            [1, 10],
            [10, 1],
        ]
        assert max_weight_assignment(weight) == {0: 1, 1: 0}


class TestMaxWeightMatching:
    def test_zero_weight_pairs_dropped(self):
        weight = [
            [5.0, 0.0],
            [0.0, 0.0],
        ]
        matching = max_weight_matching(weight)
        assert matching == {0: 0}

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching([[-1.0]])

    def test_all_zero_matrix_gives_empty_matching(self):
        assert max_weight_matching([[0.0, 0.0], [0.0, 0.0]]) == {}

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=0, max_value=100),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matching_weight_is_optimal(self, weight):
        """Brute-force all permutations: the matching's total weight equals
        the best achievable."""
        n = len(weight)
        matching = max_weight_matching(weight)
        total = sum(weight[i][j] for i, j in matching.items())
        best = max(
            sum(weight[i][p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert total == pytest.approx(best, abs=1e-6)
