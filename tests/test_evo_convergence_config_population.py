"""Tests for De Jong convergence, EvolutionaryConfig, and fitness evaluation."""

import numpy as np
import pytest

from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.convergence import (
    DeJongConvergence,
    gene_convergence_profile,
)
from repro.search.best_set import BestProjectionSet
from repro.search.evolutionary.encoding import Solution, WILDCARD_GENE
from repro.search.evolutionary.engine import EvolutionarySearch
from repro.search.evolutionary.population import (
    FitnessEvaluator,
    INFEASIBLE_FITNESS,
)
from repro.sparsity.coefficient import sparsity_coefficient


class TestGeneConvergenceProfile:
    def test_uniform_population_fully_converged(self):
        population = [[0, WILDCARD_GENE]] * 10
        assert gene_convergence_profile(population) == [1.0, 1.0]

    def test_mixed_population(self):
        population = [[0]] * 3 + [[1]]
        assert gene_convergence_profile(population) == [0.75]

    def test_wildcard_counts_as_value(self):
        population = [[WILDCARD_GENE]] * 19 + [[2]]
        assert gene_convergence_profile(population) == [0.95]

    def test_empty_population_rejected(self):
        with pytest.raises(ValidationError):
            gene_convergence_profile([])

    def test_ragged_population_rejected(self):
        with pytest.raises(ValidationError):
            gene_convergence_profile([[0], [0, 1]])


class TestDeJong:
    def test_converged_at_threshold(self):
        population = [[0]] * 19 + [[1]]
        assert DeJongConvergence(0.95).has_converged(population)

    def test_not_converged_below_threshold(self):
        population = [[0]] * 18 + [[1]] * 2
        assert not DeJongConvergence(0.95).has_converged(population)

    def test_all_genes_must_converge(self):
        population = [[0, 0]] * 10 + [[0, 1]] * 5
        criterion = DeJongConvergence(0.95)
        assert criterion.n_converged_genes(population) == 1
        assert not criterion.has_converged(population)

    def test_threshold_validated(self):
        with pytest.raises(ValidationError):
            DeJongConvergence(0.2)

    @pytest.mark.parametrize("mode", ["majority", ["string"], 1, None])
    def test_mode_validated(self, mode):
        with pytest.raises(ValidationError, match="convergence mode"):
            DeJongConvergence(0.95, mode=mode)
        with pytest.raises(ValidationError, match="convergence mode"):
            EvolutionaryConfig(convergence_mode=mode)


class TestEvolutionaryConfig:
    def test_defaults_valid(self):
        cfg = EvolutionaryConfig()
        assert cfg.population_size >= 2
        assert cfg.mutation_swap_probability == cfg.mutation_flip_probability

    def test_frozen(self):
        cfg = EvolutionaryConfig()
        with pytest.raises(Exception):
            cfg.population_size = 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"mutation_swap_probability": 1.5},
            {"crossover_rate": -0.1},
            {"max_generations": 0},
            {"convergence_threshold": 0.3},
            {"stall_generations": 0},
            {"max_seconds": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            EvolutionaryConfig(**kwargs)


class TestFitnessEvaluator:
    def test_feasible_fitness_is_sparsity(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=2)
        s = Solution.from_string("12****")
        cube = Subspace((0, 1), (0, 1))
        expected = sparsity_coefficient(
            small_counter.count(cube),
            small_counter.n_points,
            small_counter.n_ranges,
            2,
        )
        assert evaluator.score(s).coefficient == pytest.approx(expected)

    def test_infeasible_gets_penalty(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=2)
        best = BestProjectionSet(5)
        genes = np.array([Solution.from_string(s).genes for s in ("12****", "123***")])
        fitnesses = EvolutionarySearch._evaluate_and_track(genes, evaluator, best)
        assert fitnesses[1] == INFEASIBLE_FITNESS
        assert evaluator.score(Solution.from_string("123***")) is None

    def test_partial_fitness_uses_own_dimensionality(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=3)
        partial = Solution.from_string("1*****")
        cube = Subspace((0,), (0,))
        expected = sparsity_coefficient(
            small_counter.count(cube),
            small_counter.n_points,
            small_counter.n_ranges,
            1,
        )
        assert evaluator.partial_fitness(partial) == pytest.approx(expected)

    def test_all_wildcard_partial_is_zero(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=2)
        assert evaluator.partial_fitness(Solution.from_string("******")) == 0.0

    def test_score_carries_count(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=1)
        scored = evaluator.score(Solution.from_string("3*****"))
        assert scored is not None
        assert scored.count == small_counter.count(Subspace((0,), (2,)))

    def test_evaluation_counter(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=1)
        evaluator.score(Solution.from_string("1*****"))
        evaluator.score(Solution.from_string("2*****"))
        evaluator.score(Solution.from_string("12****"))  # infeasible: not counted
        assert evaluator.n_evaluations == 2

    def test_score_batch_on_gene_matrix(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=1)
        sols = [Solution.from_string("1*****"), Solution.from_string("12****")]
        scored = evaluator.score_batch(np.array([s.genes for s in sols]))
        assert scored == [evaluator.score(sols[0]), None]

    def test_batches_of_no_rows_are_empty(self, small_counter):
        evaluator = FitnessEvaluator(small_counter, dimensionality=1)
        assert evaluator.score_batch([]) == []
        empty = np.empty((0, small_counter.n_dims), dtype=np.int64)
        assert evaluator.partial_fitness_batch(empty).shape == (0,)

    def test_k_exceeds_dims_rejected(self, small_counter):
        with pytest.raises(ValidationError):
            FitnessEvaluator(small_counter, dimensionality=99)

    def test_rejects_non_counter(self):
        with pytest.raises(ValidationError):
            FitnessEvaluator("nope", 2)
