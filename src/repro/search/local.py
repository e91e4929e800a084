"""Alternative searchers: random search, hill climbing, simulated annealing.

§2.1 motivates the evolutionary algorithm by contrast: "unlike other
optimization methods such as hill climbing or simulated annealing
[Kirkpatrick et al. 1983], they work with an entire population of
current solutions", combining the strengths of "hill-climbing, random
search [and] simulated annealing ... in conjunction with recombination".
These three methods are implemented here over the *same* solution
encoding (fixed-k don't-care strings) and the same move set (the GA's
Type I dimension swaps and Type II range flips), so the search-method
ablation isolates exactly what recombination adds.

All three maintain the same ``BestProjectionSet`` as the other
searchers, implement the :class:`~repro.engine.protocol.SearchEngine`
protocol and return a ``SearchOutcome``, so they are drop-in comparable
in the benchmarks and named in :data:`~repro.engine.registry.ENGINES`.
"""

from __future__ import annotations

import math

from .._validation import check_in_range, check_positive_int, check_rng
from ..engine.context import RunContext
from ..engine.protocol import SearchEngine
from ..exceptions import SearchCancelled
from ..grid.counter import CubeCounter
from ..run.controller import RunBudget
from .best_set import BestProjectionSet
from .evolutionary.encoding import (
    WILDCARD_GENE,
    Solution,
    random_solution,
    seed_population,
)
from .evolutionary.mutation import draw_flip, draw_swap
from .evolutionary.population import FitnessEvaluator
from .outcome import SearchOutcome

__all__ = ["RandomSearch", "HillClimbingSearch", "SimulatedAnnealingSearch"]


def _neighbor(solution: Solution, n_ranges: int, rng) -> Solution:
    """One random move: a Type I dimension swap or a Type II range flip.

    Draws the GA's mutation moves, so all searchers share a
    neighborhood structure.
    """
    genes = list(solution.genes)
    fixed = [i for i, g in enumerate(genes) if g != WILDCARD_GENE]
    wildcards = [i for i, g in enumerate(genes) if g == WILDCARD_GENE]
    if wildcards and fixed and rng.random() < 0.5:
        gain, lose, value = draw_swap(len(wildcards), len(fixed), n_ranges, rng)
        genes[wildcards[gain]] = value
        genes[fixed[lose]] = WILDCARD_GENE
    elif fixed and n_ranges > 1:
        position, offset = draw_flip(len(fixed), n_ranges, rng)
        genes[fixed[position]] = (genes[fixed[position]] + offset) % n_ranges
    return Solution(genes)


class _SingleSolutionSearch(SearchEngine):
    """Shared plumbing for the non-population searchers."""

    def __init__(
        self,
        counter: CubeCounter,
        dimensionality: int,
        n_projections: int | None = 20,
        *,
        max_evaluations: int = 10_000,
        require_nonempty: bool = True,
        threshold: float | None = None,
        random_state=None,
    ):
        self._bind_counter(counter, dimensionality)
        self.n_projections = n_projections
        self.max_evaluations = check_positive_int(max_evaluations, "max_evaluations")
        self.require_nonempty = require_nonempty
        self.threshold = threshold
        self.random_state = random_state

    # ------------------------------------------------------------------
    def _begin(self, context: RunContext):
        """Shared run setup: seed state, start the budget, emit run_started.

        Returns ``(rng, evaluator, best)``; the mutable run bundle lands
        on ``self._run`` for :meth:`_build_outcome`.
        """
        rng = check_rng(self.random_state)
        evaluator = FitnessEvaluator(self.counter, self.dimensionality)
        best = BestProjectionSet(
            self.n_projections,
            require_nonempty=self.require_nonempty,
            threshold=self.threshold,
        )
        self._budget = RunBudget(context.cancel_token, context.max_seconds)
        self._run = {"evaluator": evaluator, "best": best, "extra": {}}
        context.emit(
            "run_started",
            algorithm=type(self).__name__,
            dimensionality=self.dimensionality,
            n_projections=self.n_projections,
            max_evaluations=self.max_evaluations,
        )
        return rng, evaluator, best

    def _iterate(self, context: RunContext):
        """Run the subclass's ``_walk`` generator under the counter binding.

        A token flipped inside a count (the sharded counter checks it
        between shards) stops the walk as a boundary poll does.
        """
        rng, evaluator, best = self._begin(context)
        with self.counter.runtime_binding(context.cancel_token, context.sink):
            try:
                yield from self._walk(rng, evaluator, best)
            except SearchCancelled:
                self._budget.latch("cancelled")

    def _restart(self, rng, evaluator, best) -> tuple[Solution, float]:
        """A random feasible start and its fitness."""
        start = random_solution(
            self.counter.n_dims, self.dimensionality, self.counter.n_ranges, rng
        )
        return start, self._evaluate(start, evaluator, best)

    def _evaluate(self, solution: Solution, evaluator, best) -> float:
        scored = evaluator.score(solution)
        if scored is None:
            return float("inf")
        best.offer(scored)
        return scored.coefficient

    def _build_outcome(self, context: RunContext) -> SearchOutcome:
        run = self._require_run_state()
        budget = self._budget
        stats = {
            "elapsed_seconds": budget.elapsed_seconds(),
            "evaluations": run["evaluator"].n_evaluations,
            "algorithm": type(self).__name__,
        }
        stats.update(run["extra"])
        # Running out of evaluations is these searchers' natural end.
        return SearchOutcome(
            projections=tuple(run["best"].entries()),
            completed=budget.reason is None,
            stats=stats,
            stopped_reason=budget.reason or "evaluation_cap",
        )


class RandomSearch(_SingleSolutionSearch):
    """Uniformly random cubes — the no-structure control of §2.1."""

    #: Draws scored per batch; the gap between cancellation checks.
    CHUNK = 512

    def _walk(self, rng, evaluator, best):
        """Evaluate ``max_evaluations`` random feasible solutions.

        The strings are drawn first, as one gene matrix (same generator
        stream as one-at-a-time evaluation), and then scored through the
        counter's batch engine in chunks; offers happen in draw order, so the
        resulting best set is identical to the sequential path, and the
        cancel token is polled before every chunk (one step per chunk)
        so a flip returns the best-so-far partial outcome.
        """
        budget = self._budget
        yield  # prepare boundary: nothing drawn or counted yet
        genes = seed_population(
            self.counter.n_dims, self.dimensionality, self.counter.n_ranges,
            self.max_evaluations, rng,
        )
        for lo in range(0, len(genes), self.CHUNK):
            yield
            if budget.check() is not None:
                break
            for scored in evaluator.score_batch(genes[lo : lo + self.CHUNK]):
                if scored is not None:
                    best.offer(scored)


class HillClimbingSearch(_SingleSolutionSearch):
    """First-improvement hill climbing with random restarts.

    From a random start, propose neighbor moves (the GA's mutation
    moves); accept any improvement, restart after *patience*
    consecutive rejections.  This is the "hill climbing" §2.1 contrasts
    the GA against: strong local descent, no recombination, prone to
    local optima.
    """

    def __init__(self, *args, patience: int = 50, **kwargs):
        super().__init__(*args, **kwargs)
        self.patience = check_positive_int(patience, "patience")

    def _walk(self, rng, evaluator, best):
        run, budget = self._run, self._budget
        restarts = 0
        run["extra"]["restarts"] = restarts
        yield  # prepare boundary
        current, current_fitness = self._restart(rng, evaluator, best)
        rejected = 0
        while evaluator.n_evaluations < self.max_evaluations:
            yield
            if budget.check() is not None:
                break
            candidate = _neighbor(current, self.counter.n_ranges, rng)
            fitness = self._evaluate(candidate, evaluator, best)
            if fitness < current_fitness:
                current, current_fitness = candidate, fitness
                rejected = 0
            else:
                rejected += 1
                if rejected >= self.patience:
                    restarts += 1
                    run["extra"]["restarts"] = restarts
                    current, current_fitness = self._restart(rng, evaluator, best)
                    rejected = 0


class SimulatedAnnealingSearch(_SingleSolutionSearch):
    """Simulated annealing (Kirkpatrick, Gelatt & Vecchi 1983; ref [21]).

    Metropolis acceptance over the shared move set with a geometric
    cooling schedule: worse moves are accepted with probability
    ``exp(−Δ/T)``, ``T`` decaying from *initial_temperature* by
    *cooling* per step.
    """

    def __init__(
        self,
        *args,
        initial_temperature: float = 1.0,
        cooling: float = 0.999,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.initial_temperature = check_in_range(
            initial_temperature, "initial_temperature", low=1e-9
        )
        self.cooling = check_in_range(cooling, "cooling", low=0.5, high=1.0)

    def _walk(self, rng, evaluator, best):
        run, budget = self._run, self._budget
        accepted_worse = 0
        temperature = self.initial_temperature
        run["extra"]["accepted_worse"] = accepted_worse
        run["extra"]["final_temperature"] = temperature
        yield  # prepare boundary
        current, current_fitness = self._restart(rng, evaluator, best)
        while evaluator.n_evaluations < self.max_evaluations:
            yield
            if budget.check() is not None:
                break
            candidate = _neighbor(current, self.counter.n_ranges, rng)
            fitness = self._evaluate(candidate, evaluator, best)
            delta = fitness - current_fitness
            if delta < 0:
                current, current_fitness = candidate, fitness
            elif math.isfinite(delta) and temperature > 0:
                if rng.random() < math.exp(-delta / temperature):
                    current, current_fitness = candidate, fitness
                    accepted_worse += 1
                    run["extra"]["accepted_worse"] = accepted_worse
            temperature *= self.cooling
            run["extra"]["final_temperature"] = temperature
