"""Tests for Hopcroft–Karp maximum bipartite matching."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.hopcroft_karp_reference import (
    matching_from_matrix,
    maximum_bipartite_matching,
    perfect_matching,
)


def brute_force_max_matching_size(adjacency):
    """Exponential reference: try all subsets of edges."""
    edges = [(u, v) for u, vs in adjacency.items() for v in vs]
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(edges, size):
            lefts = [u for u, _ in subset]
            rights = [v for _, v in subset]
            if len(set(lefts)) == size and len(set(rights)) == size:
                best = size
                break
    return best


class TestBasicCases:
    def test_empty_graph(self):
        assert maximum_bipartite_matching({}) == {}

    def test_single_edge(self):
        assert maximum_bipartite_matching({"a": ["x"]}) == {"a": "x"}

    def test_left_vertex_with_no_edges(self):
        matching = maximum_bipartite_matching({"a": ["x"], "b": []})
        assert matching == {"a": "x"}

    def test_contention_resolved_by_augmenting(self):
        # Both want x, but a can also take y: size-2 matching exists.
        matching = maximum_bipartite_matching({"a": ["x", "y"], "b": ["x"]})
        assert len(matching) == 2
        assert matching["b"] == "x"
        assert matching["a"] == "y"

    def test_long_augmenting_chain(self):
        adjacency = {
            1: ["a"],
            2: ["a", "b"],
            3: ["b", "c"],
            4: ["c", "d"],
        }
        matching = maximum_bipartite_matching(adjacency)
        assert len(matching) == 4

    def test_matching_is_consistent(self):
        adjacency = {i: [j for j in range(5)] for i in range(5)}
        matching = maximum_bipartite_matching(adjacency)
        assert len(matching) == 5
        assert len(set(matching.values())) == 5


class TestPerfectMatching:
    def test_perfect_exists(self):
        assert perfect_matching({0: [1], 1: [0]}) is not None

    def test_perfect_missing(self):
        # Two left vertices share a single right vertex.
        assert perfect_matching({0: [0], 1: [0]}) is None

    def test_hall_violation(self):
        # {0, 1, 2} map into {0, 1}: no perfect matching by Hall's theorem.
        adjacency = {0: [0, 1], 1: [0, 1], 2: [0, 1]}
        assert perfect_matching(adjacency) is None


class TestMatrixHelper:
    def test_threshold_filters_edges(self):
        matrix = [[5.0, 0.5], [0.5, 5.0]]
        matching = matching_from_matrix(matrix, threshold=1.0)
        assert matching == {0: 0, 1: 1}

    def test_no_perfect_matching_returns_none(self):
        matrix = [[1.0, 0.0], [1.0, 0.0]]
        assert matching_from_matrix(matrix) is None

    def test_identity_matrix(self):
        matrix = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
        assert matching_from_matrix(matrix) == {i: i for i in range(4)}


@st.composite
def random_bipartite(draw):
    left = draw(st.integers(min_value=1, max_value=5))
    right = draw(st.integers(min_value=1, max_value=5))
    adjacency = {}
    for u in range(left):
        adjacency[u] = [
            v for v in range(right) if draw(st.booleans())
        ]
    return adjacency


class TestAgainstBruteForce:
    @given(random_bipartite())
    @settings(max_examples=120, deadline=None)
    def test_maximum_cardinality_matches_brute_force(self, adjacency):
        matching = maximum_bipartite_matching(adjacency)
        # Validity: edges exist, no vertex reused.
        for u, v in matching.items():
            assert v in adjacency[u]
        assert len(set(matching.values())) == len(matching)
        # Maximality: equals exhaustive optimum.
        assert len(matching) == brute_force_max_matching_size(adjacency)
