"""Tests for Sinkhorn scaling and Solstice QuickStuff."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.stuffing_reference import (
    has_equal_line_sums,
    is_doubly_stochastic,
    line_sums,
    quick_stuff,
    sinkhorn_scale,
)


@st.composite
def nonneg_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return [
        [draw(st.floats(min_value=0.0, max_value=100.0)) for _ in range(n)]
        for _ in range(n)
    ]


class TestLineSums:
    def test_simple(self):
        rows, cols = line_sums([[1.0, 2.0], [3.0, 4.0]])
        assert rows == [3.0, 7.0]
        assert cols == [4.0, 6.0]


class TestQuickStuff:
    def test_already_balanced_unchanged(self):
        matrix = [[1.0, 2.0], [2.0, 1.0]]
        stuffed, dummy = quick_stuff(matrix)
        assert stuffed == matrix
        assert all(value == 0.0 for row in dummy for value in row)

    def test_line_sums_equalized(self):
        matrix = [[5.0, 0.0], [0.0, 1.0]]
        stuffed, dummy = quick_stuff(matrix)
        rows, cols = line_sums(stuffed)
        assert rows == pytest.approx([5.0, 5.0])
        assert cols == pytest.approx([5.0, 5.0])

    def test_original_demand_preserved(self):
        matrix = [[5.0, 0.0], [0.0, 1.0]]
        stuffed, dummy = quick_stuff(matrix)
        for i in range(2):
            for j in range(2):
                assert stuffed[i][j] - dummy[i][j] == pytest.approx(matrix[i][j])
                assert dummy[i][j] >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            quick_stuff([[-1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            quick_stuff([[1.0, 2.0]])

    @given(nonneg_matrices())
    @settings(max_examples=100, deadline=None)
    def test_stuffed_has_equal_line_sums(self, matrix):
        stuffed, dummy = quick_stuff(matrix)
        assert has_equal_line_sums(stuffed, tolerance=1e-6)
        # Dummy is non-negative everywhere and preserves the original.
        for i, row in enumerate(matrix):
            for j, value in enumerate(row):
                assert dummy[i][j] >= -1e-9
                assert stuffed[i][j] == pytest.approx(value + dummy[i][j])


class TestSinkhorn:
    def test_positive_matrix_converges(self):
        matrix = [[1.0, 2.0], [3.0, 4.0]]
        scaled = sinkhorn_scale(matrix)
        assert is_doubly_stochastic(scaled, tolerance=1e-6)

    def test_zeros_preserved(self):
        matrix = [[1.0, 0.0], [0.0, 1.0]]
        scaled = sinkhorn_scale(matrix)
        assert scaled[0][1] == 0.0
        assert scaled[1][0] == 0.0
        assert is_doubly_stochastic(scaled, tolerance=1e-6)

    def test_permutation_matrix_fixed_point(self):
        matrix = [[0.0, 1.0], [1.0, 0.0]]
        scaled = sinkhorn_scale(matrix)
        assert scaled == [[0.0, 1.0], [1.0, 0.0]]

    @given(nonneg_matrices(max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_scaling_never_creates_support(self, matrix):
        """Sinkhorn scales entries; zeros stay zero."""
        scaled = sinkhorn_scale(matrix, iterations=20)
        for original_row, scaled_row in zip(matrix, scaled):
            for original, value in zip(original_row, scaled_row):
                if original == 0.0:
                    assert value == 0.0
                assert value >= 0.0


class TestPredicates:
    def test_is_doubly_stochastic(self):
        assert is_doubly_stochastic([[0.5, 0.5], [0.5, 0.5]])
        assert not is_doubly_stochastic([[1.0, 0.5], [0.5, 0.5]])

    def test_has_equal_line_sums_relative_tolerance(self):
        big = [[1e9, 0.0], [0.0, 1e9]]
        assert has_equal_line_sums(big)
        assert has_equal_line_sums([])
