"""Tests for the GA solution encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.search.evolutionary.encoding import (
    Solution,
    WILDCARD_GENE,
    check_population,
    random_solution,
    seed_population,
)


class TestSolution:
    def test_basic_properties(self):
        s = Solution([WILDCARD_GENE, 2, WILDCARD_GENE, 8])
        assert s.n_dims == 4
        assert s.dimensionality == 2
        assert s.genes == (WILDCARD_GENE, 2, WILDCARD_GENE, 8)
        assert s.is_feasible(2)

    def test_paper_string_rendering(self):
        # The paper's example: *3*9 in 4-dimensional data with phi=10.
        s = Solution([WILDCARD_GENE, 2, WILDCARD_GENE, 8])
        assert s.to_string() == "*3*9"

    def test_string_roundtrip(self):
        s = Solution.from_string("*3*9")
        assert s.genes == (WILDCARD_GENE, 2, WILDCARD_GENE, 8)
        assert Solution.from_string(s.to_string()) == s

    def test_delimited_string_for_large_phi(self):
        s = Solution([WILDCARD_GENE, 11])
        assert s.to_string() == "*,12"
        assert Solution.from_string("*,12") == s

    def test_from_string_checks_length(self):
        with pytest.raises(ValidationError):
            Solution.from_string("*3", n_dims=4)

    def test_feasibility(self):
        s = Solution([0, WILDCARD_GENE, 1])
        assert s.is_feasible(2)
        assert not s.is_feasible(3)

    def test_to_subspace(self):
        s = Solution([WILDCARD_GENE, 4, 0])
        assert s.to_subspace() == Subspace((1, 2), (4, 0))

    def test_from_subspace_roundtrip(self):
        cube = Subspace((0, 3), (2, 7))
        s = Solution.from_subspace(cube, 5)
        assert s.to_subspace() == cube
        assert s.dimensionality == 2

    def test_from_subspace_checks_dims(self):
        with pytest.raises(ValidationError):
            Solution.from_subspace(Subspace((5,), (0,)), 3)

    def test_immutable(self):
        s = Solution([0])
        with pytest.raises(AttributeError):
            s.genes = (1,)

    def test_hash_and_eq(self):
        assert Solution([0, WILDCARD_GENE]) == Solution([0, WILDCARD_GENE])
        assert hash(Solution([0, 1])) == hash(Solution([0, 1]))
        assert Solution([0, 1]) != Solution([1, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Solution([])

    def test_rejects_below_wildcard(self):
        with pytest.raises(ValidationError):
            Solution([-2])


class TestRandomSolution:
    def test_feasible_by_construction(self):
        for seed in range(20):
            s = random_solution(10, 3, 5, random_state=seed)
            assert s.is_feasible(3)
            assert s.n_dims == 10
            assert all(0 <= g < 5 for g in s.genes if g != WILDCARD_GENE)

    def test_deterministic_with_seed(self):
        assert random_solution(8, 2, 4, 7) == random_solution(8, 2, 4, 7)

    def test_k_equals_d(self):
        s = random_solution(4, 4, 3, 0)
        assert s.dimensionality == 4
        assert WILDCARD_GENE not in s.genes

    def test_k_exceeds_d_rejected(self):
        with pytest.raises(ValidationError):
            random_solution(3, 4, 5)

    @given(
        n_dims=st.integers(1, 30),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    def test_property_always_feasible(self, n_dims, seed, data):
        k = data.draw(st.integers(1, n_dims))
        phi = data.draw(st.integers(1, 12))
        s = random_solution(n_dims, k, phi, seed)
        assert s.dimensionality == k


class TestSeedPopulation:
    def test_size_and_feasibility(self):
        population = seed_population(12, 3, 5, 20, random_state=0)
        assert population.shape == (20, 12)
        assert all(Solution(row).is_feasible(3) for row in population)

    def test_deterministic(self):
        a = seed_population(12, 3, 5, 10, random_state=3)
        b = seed_population(12, 3, 5, 10, random_state=3)
        np.testing.assert_array_equal(a, b)

    def test_rows_are_successive_random_solutions(self):
        rng = np.random.default_rng(4)
        want = [random_solution(9, 4, 6, rng) for _ in range(7)]
        got = seed_population(9, 4, 6, 7, np.random.default_rng(4))
        assert [Solution(row) for row in got] == want


class TestCheckPopulation:
    def test_valid_matrix_passes_through(self):
        genes = seed_population(5, 2, 3, 4, random_state=0)
        assert check_population(genes, n_dims=5, n_ranges=3) is genes

    @pytest.mark.parametrize(
        ("population", "kwargs"),
        [
            pytest.param([], {}, id="empty"),
            pytest.param([0, 1], {}, id="one_dimensional"),
            pytest.param([[0, 1], [0]], {}, id="ragged"),
            pytest.param([[0, -2]], {}, id="below_wildcard"),
            pytest.param([[0.5, 1.0]], {}, id="float_genes"),
            pytest.param([["1", "*"]], {}, id="string_genes"),
            pytest.param([[0, 1]], {"n_dims": 3}, id="wrong_width"),
            pytest.param([[0, 3]], {"n_ranges": 3}, id="range_off_grid"),
        ],
    )
    def test_malformed_rejected(self, population, kwargs):
        with pytest.raises(ValidationError):
            check_population(population, **kwargs)
