"""Tests for the evolutionary search engine (Figure 3)."""

import pytest

from conftest import oracle_count
from repro import PackedCubeCounter
from repro.core.params import CountingBackend
from repro.exceptions import ValidationError
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import EquiDepthDiscretizer
from repro.search.brute_force import BruteForceSearch
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.crossover import TwoPointCrossover
from repro.search.evolutionary.engine import EvolutionarySearch
from repro.search.evolutionary.selection import TournamentSelection


def quick_config(**overrides):
    base = dict(population_size=24, max_generations=40)
    base.update(overrides)
    return EvolutionaryConfig(**base)


class TestBasicRun:
    def test_returns_k_dimensional_projections(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter, 2, 10, config=quick_config(), random_state=0
        ).run()
        assert outcome.completed
        assert 0 < len(outcome.projections) <= 10
        assert all(p.dimensionality == 2 for p in outcome.projections)

    def test_projections_sorted(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter, 2, 10, config=quick_config(), random_state=0
        ).run()
        coefficients = [p.coefficient for p in outcome.projections]
        assert coefficients == sorted(coefficients)

    def test_deterministic_given_seed(self, small_counter):
        a = EvolutionarySearch(
            small_counter, 2, 5, config=quick_config(), random_state=11
        ).run()
        b = EvolutionarySearch(
            small_counter, 2, 5, config=quick_config(), random_state=11
        ).run()
        assert [p.subspace for p in a.projections] == [
            p.subspace for p in b.projections
        ]

    def test_stats_populated(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter, 2, 5, config=quick_config(), random_state=0
        ).run()
        assert outcome.stats["generations"] >= 0
        assert outcome.stats["evaluations"] > 0
        assert "OptimizedCrossover" in outcome.stats["algorithm"]


class TestNeverBeatsBruteForce:
    @pytest.mark.parametrize("k", [1, 2])
    def test_ga_bounded_by_exhaustive_optimum(self, small_counter, k):
        brute = BruteForceSearch(small_counter, k, n_projections=1).run()
        ga = EvolutionarySearch(
            small_counter, k, 1, config=quick_config(), random_state=0
        ).run()
        assert ga.best_coefficient >= brute.best_coefficient - 1e-12

    def test_ga_finds_optimum_on_small_problem(self, small_counter):
        # d=6, phi=5, k=2: 375 cubes; the GA should find the global best.
        brute = BruteForceSearch(small_counter, 2, n_projections=1).run()
        ga = EvolutionarySearch(
            small_counter,
            2,
            1,
            config=quick_config(population_size=40, max_generations=60),
            random_state=3,
        ).run()
        assert ga.best_coefficient == pytest.approx(brute.best_coefficient)


class TestCrossoverVariants:
    def test_two_point_by_name(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(),
            crossover="two_point",
            random_state=0,
        ).run()
        assert "TwoPointCrossover" in outcome.stats["algorithm"]

    def test_operator_instance(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(),
            crossover=TwoPointCrossover(two_cut_points=True),
            random_state=0,
        ).run()
        assert len(outcome.projections) > 0

    def test_unknown_name_rejected(self, small_counter):
        with pytest.raises(ValidationError, match="unknown crossover"):
            EvolutionarySearch(small_counter, 2, crossover="magic")

    def test_bad_type_rejected(self, small_counter):
        with pytest.raises(ValidationError):
            EvolutionarySearch(small_counter, 2, crossover=42)

    @pytest.mark.parametrize(
        "name", [["optimized"], ("two_point",), None, b"optimized"]
    )
    def test_non_str_name_lists_the_choices(self, small_counter, name):
        with pytest.raises(ValidationError, match="optimized, two_point"):
            EvolutionarySearch(small_counter, 2, crossover=name)


class TestCrossoverRate:
    def test_partial_rate_runs(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(crossover_rate=0.5),
            random_state=0,
        ).run()
        assert outcome.projections

    def test_zero_rate_is_mutation_only(self, small_counter):
        # With crossover disabled the engine still mines (pure
        # selection + mutation), just with fewer evaluations.
        with_xo = EvolutionarySearch(
            small_counter, 2, 5, config=quick_config(), random_state=1
        ).run()
        without = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(crossover_rate=0.0),
            random_state=1,
        ).run()
        assert without.projections
        assert without.stats["evaluations"] < with_xo.stats["evaluations"]


class TestSelectionInjection:
    def test_custom_selection(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(),
            selection=TournamentSelection(size=3),
            random_state=0,
        ).run()
        assert len(outcome.projections) > 0


class TestTermination:
    def test_generation_cap(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(max_generations=3, convergence_threshold=1.0),
            random_state=0,
        ).run()
        assert outcome.stats["generations"] <= 3

    def test_stall_early_stop(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(max_generations=100, stall_generations=2),
            random_state=0,
        ).run()
        assert outcome.stats["generations"] < 100

    def test_time_budget(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=quick_config(max_seconds=1e-9, max_generations=1000),
            random_state=0,
        ).run()
        assert not outcome.completed

    def test_convergence_reached_with_aggressive_selection(self, rng):
        # A tiny problem with strong selection pressure and no mutation
        # should hit the De Jong criterion quickly.
        data = rng.normal(size=(80, 3))
        counter = CubeCounter(EquiDepthDiscretizer(3).fit_transform(data))
        outcome = EvolutionarySearch(
            counter,
            1,
            3,
            config=EvolutionaryConfig(
                population_size=30,
                max_generations=300,
                mutation_swap_probability=0.0,
                mutation_flip_probability=0.0,
            ),
            random_state=0,
        ).run()
        assert outcome.stats["converged"] == 1.0


class TestThresholdMode:
    def test_unbounded_collection(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            None,
            config=quick_config(),
            threshold=-1.0,
            random_state=0,
        ).run()
        assert all(p.coefficient <= -1.0 for p in outcome.projections)


class TestValidation:
    def test_k_exceeds_dims(self, small_counter):
        with pytest.raises(ValidationError):
            EvolutionarySearch(small_counter, 99)

    def test_rejects_non_counter(self):
        with pytest.raises(ValidationError):
            EvolutionarySearch("counter", 2)


class TestBackendDeterminism:
    """Same seed => identical run, whatever the counting backend.

    The GA's entire stochastic trajectory depends only on the rng stream
    and the fitness values; batched and process-pool counting return
    bit-identical counts (integers) and coefficients (the same float64
    ops), so the best set AND the per-generation trace must match
    exactly across backends and worker counts.
    """

    def _run(self, counter, seed=17):
        return EvolutionarySearch(
            counter,
            2,
            8,
            config=quick_config(track_history=True),
            random_state=seed,
        ).run()

    def _assert_identical(self, a, b):
        assert [p.subspace for p in a.projections] == [
            p.subspace for p in b.projections
        ]
        assert [p.coefficient for p in a.projections] == [
            p.coefficient for p in b.projections
        ]
        assert [p.count for p in a.projections] == [
            p.count for p in b.projections
        ]
        assert a.stats["generations"] == b.stats["generations"]
        assert a.stats["evaluations"] == b.stats["evaluations"]
        assert a.history == b.history

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_serial_vs_process(self, small_cells, n_workers):
        serial = CubeCounter(small_cells)
        parallel = CubeCounter(
            small_cells,
            backend=CountingBackend(
                kind="process", n_workers=n_workers, chunk_size=8
            ),
        )
        try:
            self._assert_identical(self._run(serial), self._run(parallel))
        finally:
            serial.close()
            parallel.close()

    def test_serial_vs_process_packed(self, small_cells):
        serial = PackedCubeCounter(small_cells)
        parallel = PackedCubeCounter(
            small_cells,
            backend=CountingBackend(kind="process", n_workers=2, chunk_size=8),
        )
        try:
            self._assert_identical(self._run(serial), self._run(parallel))
        finally:
            serial.close()
            parallel.close()

    def test_dense_vs_packed(self, small_cells):
        # Every mined count matches a recount straight from the codes.
        counter = CubeCounter(small_cells)
        try:
            outcome = self._run(counter)
        finally:
            counter.close()
        assert outcome.projections
        for projection in outcome.projections:
            assert projection.count == oracle_count(
                small_cells.codes, projection.subspace
            )
