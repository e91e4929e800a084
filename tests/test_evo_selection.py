"""Tests for the selection operators (Figure 4 + ablation variants)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError

from repro.search.evolutionary.encoding import WILDCARD_GENE
from repro.search.evolutionary.selection import (
    FitnessProportionalSelection,
    RankRouletteSelection,
    TournamentSelection,
    UniformSelection,
    _ranks_most_negative_first,
)


def solutions_with_fitness(fitnesses):
    """Distinct strings, one row per fitness value; row i fixes gene 0 to i."""
    genes = np.full((len(fitnesses), 4), WILDCARD_GENE)
    genes[:, 0] = np.arange(len(fitnesses))
    return genes, list(fitnesses)


def picked(selected):
    """Which input rows a selection returned (gene 0 names the row)."""
    return selected[:, 0].tolist()


class TestRanks:
    def test_most_negative_gets_rank_one(self):
        ranks = _ranks_most_negative_first([-1.0, -5.0, 0.0])
        np.testing.assert_array_equal(ranks, [2, 1, 3])

    def test_ties_stable(self):
        ranks = _ranks_most_negative_first([-1.0, -1.0])
        np.testing.assert_array_equal(ranks, [1, 2])

    def test_infeasible_ranked_last(self):
        ranks = _ranks_most_negative_first([float("inf"), -2.0])
        np.testing.assert_array_equal(ranks, [2, 1])


class TestRankRoulette:
    def test_preserves_population_size(self):
        sols, fits = solutions_with_fitness([-3.0, -2.0, -1.0, 0.0])
        out = RankRouletteSelection().select(sols, fits, np.random.default_rng(0))
        assert len(out) == 4

    def test_worst_never_selected(self):
        # Weight p - r(i) gives the worst-ranked solution weight zero.
        sols, fits = solutions_with_fitness([-3.0, -2.0, -1.0, 5.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = RankRouletteSelection().select(sols, fits, rng)
            assert 3 not in picked(out)

    def test_bias_toward_fitter(self):
        sols, fits = solutions_with_fitness([-10.0, -1.0, 0.0, 1.0])
        rng = np.random.default_rng(42)
        counts = {i: 0 for i in range(4)}
        for _ in range(200):
            for i in picked(RankRouletteSelection().select(sols, fits, rng)):
                counts[i] += 1
        assert counts[0] > counts[1] > counts[2]

    def test_single_solution_passthrough(self):
        sols, fits = solutions_with_fitness([-1.0])
        out = RankRouletteSelection().select(sols, fits, np.random.default_rng(0))
        np.testing.assert_array_equal(out, sols)

    def test_deterministic_given_seed(self):
        sols, fits = solutions_with_fitness([-3.0, -2.0, -1.0, 0.0])
        a = RankRouletteSelection().select(sols, fits, np.random.default_rng(5))
        b = RankRouletteSelection().select(sols, fits, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestTournament:
    def test_size_validated(self):
        with pytest.raises(Exception):
            TournamentSelection(size=1)

    def test_bias_toward_fitter(self):
        sols, fits = solutions_with_fitness([-5.0, 0.0, 5.0, 10.0])
        rng = np.random.default_rng(1)
        selected = TournamentSelection(size=3).select(sols, fits, rng)
        best_share = picked(selected).count(0) / len(selected)
        assert best_share > 0.25

    def test_preserves_size(self):
        sols, fits = solutions_with_fitness([-1.0, -2.0, -3.0])
        out = TournamentSelection().select(sols, fits, np.random.default_rng(0))
        assert len(out) == 3


class TestFitnessProportional:
    def test_handles_infeasible(self):
        sols, fits = solutions_with_fitness([float("inf"), -1.0, -2.0])
        out = FitnessProportionalSelection().select(
            sols, fits, np.random.default_rng(0)
        )
        assert len(out) == 3
        assert 0 not in picked(out)  # zero weight for infeasible

    def test_all_infeasible_uniform_fallback(self):
        sols, fits = solutions_with_fitness([float("inf")] * 3)
        out = FitnessProportionalSelection().select(
            sols, fits, np.random.default_rng(0)
        )
        assert len(out) == 3

    def test_all_tied_uniform_among_finite(self):
        sols, fits = solutions_with_fitness([-1.0, -1.0, -1.0])
        out = FitnessProportionalSelection().select(
            sols, fits, np.random.default_rng(0)
        )
        assert len(out) == 3


class TestUniform:
    def test_no_pressure(self):
        sols, fits = solutions_with_fitness([-9.0, 0.0])
        rng = np.random.default_rng(0)
        counts = {0: 0, 1: 0}
        for _ in range(500):
            for i in picked(UniformSelection().select(sols, fits, rng)):
                counts[i] += 1
        ratio = counts[0] / (counts[0] + counts[1])
        assert 0.4 < ratio < 0.6


def test_fitnesses_must_align_with_rows():
    sols, _ = solutions_with_fitness([-1.0, -2.0, -3.0])
    with pytest.raises(ValidationError):
        RankRouletteSelection().select(sols, [-1.0, -2.0], np.random.default_rng(0))
