"""Tests for the §2.1 alternative searchers (random / hill climbing / SA)."""

import pytest

from repro.engine.context import RunContext
from repro.engine.events import InMemoryEventSink
from repro.exceptions import ValidationError
from repro.run.cancel import CancelToken
from repro.search.evolutionary.population import FitnessEvaluator
from repro.search.brute_force import BruteForceSearch
from repro.search.local import (
    HillClimbingSearch,
    RandomSearch,
    SimulatedAnnealingSearch,
    _neighbor,
)
from repro.search.evolutionary.encoding import Solution, random_solution

import numpy as np


ALL_SEARCHERS = [RandomSearch, HillClimbingSearch, SimulatedAnnealingSearch]


class TestNeighborMove:
    def test_preserves_dimensionality(self):
        rng = np.random.default_rng(0)
        s = random_solution(8, 3, 5, rng)
        for _ in range(100):
            s = _neighbor(s, 5, rng)
            assert s.dimensionality == 3

    def test_k_equals_d_still_moves(self):
        rng = np.random.default_rng(1)
        s = Solution([0, 1, 2])
        moved = sum(_neighbor(s, 4, rng) != s for _ in range(50))
        assert moved > 0

    def test_genes_stay_in_range(self):
        rng = np.random.default_rng(2)
        s = random_solution(6, 2, 3, rng)
        for _ in range(100):
            s = _neighbor(s, 3, rng)
            assert all(g == -1 or 0 <= g < 3 for g in s.genes)


@pytest.mark.parametrize("searcher_cls", ALL_SEARCHERS)
class TestCommonBehaviour:
    def test_returns_k_dimensional_projections(self, small_counter, searcher_cls):
        outcome = searcher_cls(
            small_counter, 2, 10, max_evaluations=500, random_state=0
        ).run()
        assert outcome.projections
        assert all(p.dimensionality == 2 for p in outcome.projections)

    def test_never_beats_brute_force(self, small_counter, searcher_cls):
        brute = BruteForceSearch(small_counter, 2, n_projections=1).run()
        outcome = searcher_cls(
            small_counter, 2, 1, max_evaluations=2000, random_state=0
        ).run()
        assert outcome.best_coefficient >= brute.best_coefficient - 1e-12

    def test_deterministic(self, small_counter, searcher_cls):
        run = lambda: searcher_cls(
            small_counter, 2, 5, max_evaluations=300, random_state=42
        ).run()
        a, b = run(), run()
        assert [p.subspace for p in a.projections] == [
            p.subspace for p in b.projections
        ]

    def test_respects_evaluation_budget(self, small_counter, searcher_cls):
        outcome = searcher_cls(
            small_counter, 2, 5, max_evaluations=100, random_state=0
        ).run()
        assert outcome.stats["evaluations"] <= 110

    def test_k_exceeds_dims_rejected(self, small_counter, searcher_cls):
        with pytest.raises(ValidationError):
            searcher_cls(small_counter, 99)

    def test_rejects_non_counter(self, searcher_cls):
        with pytest.raises(ValidationError):
            searcher_cls("counter", 2)


class TestTokenRestoration:
    """Regression: the counter's token/sink binding must survive exceptions.

    The searchers install their cancel token (and event sink) on the
    shared counter for the duration of a run; an exception escaping
    mid-search used to leave the token behind, poisoning the next run
    on the same counter.
    """

    def test_binding_restored_when_evaluation_raises(
        self, small_counter, monkeypatch
    ):
        previous_token = CancelToken()
        previous_sink = InMemoryEventSink()
        small_counter.set_cancel_token(previous_token)
        small_counter.set_event_sink(previous_sink)

        calls = {"n": 0}
        original = FitnessEvaluator.score

        def flaky_score(self, solution):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("evaluator died mid-search")
            return original(self, solution)

        monkeypatch.setattr(FitnessEvaluator, "score", flaky_score)
        search = HillClimbingSearch(
            small_counter, 2, 5, max_evaluations=500, random_state=0
        )
        with pytest.raises(RuntimeError, match="mid-search"):
            search.run()
        assert small_counter.cancel_token is previous_token
        assert small_counter.event_sink is previous_sink

    def test_binding_restored_when_batch_scoring_raises(
        self, small_counter, monkeypatch
    ):
        small_counter.set_cancel_token(None)
        small_counter.set_event_sink(None)

        def boom(self, solutions):
            raise RuntimeError("batch scorer died")

        monkeypatch.setattr(FitnessEvaluator, "score_batch", boom)
        token = CancelToken()
        search = RandomSearch(
            small_counter, 2, 5, max_evaluations=600, random_state=0
        )
        with pytest.raises(RuntimeError, match="batch scorer"):
            search.run(context=RunContext(cancel_token=token))
        assert small_counter.cancel_token is None
        assert small_counter.event_sink is None

    def test_binding_restored_when_run_abandoned(self, small_counter):
        """finalize() before exhaustion closes the generator → restore."""
        token = CancelToken()
        search = SimulatedAnnealingSearch(
            small_counter, 2, 5, max_evaluations=500, random_state=0
        )
        context = RunContext(cancel_token=token)
        search.prepare(context)
        assert search.step(context)
        assert small_counter.cancel_token is token
        outcome = search.finalize(context)
        assert small_counter.cancel_token is None
        assert outcome.stopped_reason == "cancelled"


class TestHillClimbing:
    def test_restarts_counted(self, small_counter):
        outcome = HillClimbingSearch(
            small_counter, 2, 5, max_evaluations=2000, patience=10, random_state=0
        ).run()
        assert outcome.stats["restarts"] > 0

    def test_finds_optimum_on_small_problem(self, small_counter):
        brute = BruteForceSearch(small_counter, 1, n_projections=1).run()
        outcome = HillClimbingSearch(
            small_counter, 1, 1, max_evaluations=2000, random_state=0
        ).run()
        assert outcome.best_coefficient == pytest.approx(brute.best_coefficient)


class TestSimulatedAnnealing:
    def test_temperature_decays(self, small_counter):
        outcome = SimulatedAnnealingSearch(
            small_counter,
            2,
            5,
            max_evaluations=500,
            initial_temperature=1.0,
            cooling=0.99,
            random_state=0,
        ).run()
        assert outcome.stats["final_temperature"] < 1.0

    def test_accepts_worse_moves_when_hot(self, small_counter):
        outcome = SimulatedAnnealingSearch(
            small_counter,
            2,
            5,
            max_evaluations=1000,
            initial_temperature=10.0,
            cooling=0.9999,
            random_state=0,
        ).run()
        assert outcome.stats["accepted_worse"] > 0

    def test_invalid_cooling(self, small_counter):
        with pytest.raises(ValidationError):
            SimulatedAnnealingSearch(small_counter, 2, cooling=1.5)
