"""Tests for the mutation operator (Figure 6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.search.evolutionary.encoding import (
    Solution,
    WILDCARD_GENE,
    random_solution,
    seed_population,
)
from repro.search.evolutionary.mutation import BalancedMutation


def fixed_positions(solution):
    return [i for i, g in enumerate(solution.genes) if g != WILDCARD_GENE]


def mutate(mutation, solution, rng):
    """One string through the population operator, as a one-row matrix."""
    return Solution(mutation.apply([solution.genes], rng)[0])


class TestDimensionalityPreservation:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.integers(1, 6))
    def test_property_k_never_changes(self, seed, k):
        """The paper's invariant: mutation preserves projection dimensionality."""
        rng = np.random.default_rng(seed)
        mutation = BalancedMutation(1.0, 1.0, n_ranges=5)
        s = random_solution(8, min(k, 8), 5, rng)
        mutated = mutate(mutation, s, rng)
        assert mutated.dimensionality == s.dimensionality

    def test_population_apply_preserves_all(self):
        rng = np.random.default_rng(1)
        mutation = BalancedMutation(0.8, 0.8, n_ranges=4)
        population = seed_population(10, 3, 4, 30, rng)
        before = population.copy()
        mutated = mutation.apply(population, rng)
        assert mutated.shape == (30, 10)
        assert ((mutated != WILDCARD_GENE).sum(axis=1) == 3).all()
        np.testing.assert_array_equal(population, before)  # input untouched


class TestTypeOne:
    def test_swap_moves_a_dimension(self):
        rng = np.random.default_rng(0)
        mutation = BalancedMutation(1.0, 0.0, n_ranges=5)
        s = Solution([0, WILDCARD_GENE, WILDCARD_GENE])
        changed = 0
        for _ in range(50):
            m = mutate(mutation, s, rng)
            assert m.dimensionality == 1
            if fixed_positions(m) != fixed_positions(s):
                changed += 1
        assert changed > 0

    def test_skipped_when_no_wildcards(self):
        rng = np.random.default_rng(0)
        mutation = BalancedMutation(1.0, 0.0, n_ranges=5)
        s = Solution([0, 1, 2])  # k == d, Q empty
        assert mutate(mutation, s, rng) == s

    def test_skipped_when_all_wildcards(self):
        rng = np.random.default_rng(0)
        mutation = BalancedMutation(1.0, 0.0, n_ranges=5)
        s = Solution([WILDCARD_GENE, WILDCARD_GENE])
        assert mutate(mutation, s, rng) == s


class TestTypeTwo:
    def test_flip_changes_value_not_position(self):
        rng = np.random.default_rng(0)
        mutation = BalancedMutation(0.0, 1.0, n_ranges=5)
        s = Solution([2, WILDCARD_GENE])
        for _ in range(20):
            m = mutate(mutation, s, rng)
            assert fixed_positions(m) == [0]
            assert m.genes[0] != WILDCARD_GENE

    def test_flip_always_different_value(self):
        rng = np.random.default_rng(0)
        mutation = BalancedMutation(0.0, 1.0, n_ranges=5)
        s = Solution([2, WILDCARD_GENE])
        for _ in range(30):
            m = mutate(mutation, s, rng)
            assert m.genes[0] != 2

    def test_flip_noop_when_phi_one(self):
        rng = np.random.default_rng(0)
        mutation = BalancedMutation(0.0, 1.0, n_ranges=1)
        s = Solution([0, WILDCARD_GENE])
        assert mutate(mutation, s, rng) == s


class TestProbabilities:
    def test_zero_probabilities_identity(self):
        rng = np.random.default_rng(0)
        mutation = BalancedMutation(0.0, 0.0, n_ranges=5)
        population = seed_population(6, 2, 5, 8, rng)
        mutated = mutation.apply(population, rng)
        np.testing.assert_array_equal(mutated, population)
        assert mutated is not population

    def test_rates_roughly_respected(self):
        rng = np.random.default_rng(9)
        mutation = BalancedMutation(0.3, 0.0, n_ranges=50)
        population = np.array([[5] + [WILDCARD_GENE] * 9] * 500)
        changed = (mutation.apply(population, rng) != population).any(axis=1).sum()
        assert 100 < changed < 200  # ~150 expected

    def test_invalid_probability_rejected(self):
        with pytest.raises(Exception):
            BalancedMutation(1.5, 0.0, n_ranges=5)

    def test_invalid_phi_rejected(self):
        with pytest.raises(ValueError):
            BalancedMutation(0.5, 0.5, n_ranges=0)

    def test_new_values_in_range(self):
        rng = np.random.default_rng(3)
        mutation = BalancedMutation(1.0, 1.0, n_ranges=3)
        population = seed_population(6, 3, 3, 10, rng)
        for _ in range(50):
            population = mutation.apply(population, rng)
            assert ((population >= WILDCARD_GENE) & (population < 3)).all()
