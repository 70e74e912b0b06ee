"""Tests for the Birkhoff–von-Neumann decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.birkhoff_reference import birkhoff_von_neumann, reconstruct
from tests.oracles.stuffing_reference import quick_stuff, sinkhorn_scale


class TestBasicDecomposition:
    def test_permutation_matrix_is_one_term(self):
        matrix = [[0.0, 1.0], [1.0, 0.0]]
        terms = birkhoff_von_neumann(matrix)
        assert len(terms) == 1
        assert terms[0].weight == pytest.approx(1.0)
        assert terms[0].permutation == {0: 1, 1: 0}

    def test_uniform_matrix(self):
        matrix = [[0.5, 0.5], [0.5, 0.5]]
        terms = birkhoff_von_neumann(matrix)
        assert sum(term.weight for term in terms) == pytest.approx(1.0)
        assert len(terms) == 2

    def test_empty_matrix(self):
        assert birkhoff_von_neumann([]) == []

    def test_unequal_line_sums_rejected(self):
        with pytest.raises(ValueError, match="equal row/column sums"):
            birkhoff_von_neumann([[1.0, 0.0], [1.0, 1.0]])

    def test_max_terms_truncates(self):
        matrix = [[0.25, 0.75], [0.75, 0.25]]
        terms = birkhoff_von_neumann(matrix, max_terms=1)
        assert len(terms) == 1

    def test_term_count_bound(self):
        """At most (n-1)^2 + 1 terms (each step zeroes an entry)."""
        matrix = sinkhorn_scale([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        terms = birkhoff_von_neumann(matrix)
        assert len(terms) <= (3 - 1) ** 2 + 1


class TestReconstruction:
    def test_reconstruct_exact(self):
        matrix = [[0.3, 0.7], [0.7, 0.3]]
        terms = birkhoff_von_neumann(matrix)
        rebuilt = reconstruct(terms, 2)
        for i in range(2):
            for j in range(2):
                assert rebuilt[i][j] == pytest.approx(matrix[i][j], abs=1e-9)


@st.composite
def stuffed_matrices(draw, max_n=4):
    """Random non-negative matrices made decomposable by QuickStuff."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    matrix = [
        [draw(st.floats(min_value=0.0, max_value=20.0)) for _ in range(n)]
        for _ in range(n)
    ]
    stuffed, _ = quick_stuff(matrix)
    return stuffed


class TestDecompositionProperties:
    @given(stuffed_matrices())
    @settings(max_examples=80, deadline=None)
    def test_terms_rebuild_the_matrix(self, matrix):
        total = sum(sum(row) for row in matrix)
        terms = birkhoff_von_neumann(matrix)
        rebuilt = reconstruct(terms, len(matrix))
        for i, row in enumerate(matrix):
            for j, value in enumerate(row):
                assert rebuilt[i][j] == pytest.approx(
                    value, rel=1e-6, abs=max(total, 1.0) * 1e-7
                )

    @given(stuffed_matrices())
    @settings(max_examples=80, deadline=None)
    def test_every_term_is_positive_weight_permutation(self, matrix):
        n = len(matrix)
        for term in birkhoff_von_neumann(matrix):
            assert term.weight > 0
            assert sorted(term.permutation.keys()) == list(range(n))
            assert sorted(term.permutation.values()) == list(range(n))

    @given(stuffed_matrices())
    @settings(max_examples=80, deadline=None)
    def test_weights_sum_to_line_sum(self, matrix):
        if not matrix:
            return
        line_sum = sum(matrix[0])
        terms = birkhoff_von_neumann(matrix)
        total_weight = sum(term.weight for term in terms)
        assert total_weight == pytest.approx(line_sum, rel=1e-6, abs=1e-7)
