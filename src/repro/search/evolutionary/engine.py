"""Figure 3: the evolutionary outlier-search main loop.

Seed a population of ``p`` random feasible strings, then iterate
selection → crossover → mutation, folding every feasible solution ever
evaluated into the running ``BestSet`` of the ``m`` most negative
sparsity coefficients.  Each generation runs in one C call where the
counter serves it (:mod:`repro.search.evolutionary.generation`), else
through the operators, with the same result and random stream.
Terminate on De Jong convergence, once the best set is certified final
(full at the floor count, see
:meth:`~repro.search.best_set.BestProjectionSet.certified`), or on the
generation / wall-clock / stall caps from the config, and report the
best set; §2.3's postprocessing to data points happens in the detector
facade.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import asdict

import numpy as np

from ..._validation import check_choice, check_rng
from ...engine.context import RunContext
from ...engine.protocol import SearchEngine
from ...exceptions import SearchCancelled, ValidationError
from ...grid.counter import CubeCounter
from ...run.checkpoint import encode_rng_state
from ...run.controller import RunBudget
from ..best_set import BestProjectionSet
from ..outcome import GenerationRecord, SearchOutcome
from .config import EvolutionaryConfig
from .convergence import DeJongConvergence, modal_share
from .crossover import CrossoverOperator, OptimizedCrossover, TwoPointCrossover
from .encoding import check_population, seed_population
from .generation import breed, fused_generation
from .mutation import BalancedMutation
from .population import INFEASIBLE_FITNESS, FitnessEvaluator
from .selection import RankRouletteSelection, SelectionOperator

__all__ = ["EvolutionarySearch"]

logger = logging.getLogger(__name__)

_CROSSOVER_ALIASES = {
    "optimized": lambda cfg: OptimizedCrossover(cfg.max_exact_positions),
    "two_point": lambda cfg: TwoPointCrossover(),
}


def _restored_number(state: dict, key: str, kind: type = int):
    """Checkpoint field *key* as *kind* (``int`` or ``float``).

    A missing or malformed value raises
    :class:`~repro.exceptions.ValidationError` naming the field.
    """
    try:
        return kind(state[key])
    except KeyError:
        raise ValidationError(f"checkpoint has no {key!r} field") from None
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"checkpoint field {key!r} must be {kind.__name__}-valued, got "
            f"{state[key]!r}"
        ) from None


class EvolutionarySearch(SearchEngine):
    """Algorithm *EvolutionaryOutlierSearch* (Figure 3).

    Parameters
    ----------
    counter:
        Cube counting engine over the discretized data.
    dimensionality:
        k — dimensionality of mined projections.
    n_projections:
        m — size of the best set to maintain (None allowed only with a
        *threshold*).
    config:
        GA hyper-parameters; defaults are sensible at paper scale.
    crossover:
        ``"optimized"`` (Figure 5, the paper's contribution),
        ``"two_point"`` (the baseline), or any
        :class:`~repro.search.evolutionary.crossover.CrossoverOperator`.
    selection:
        Defaults to the paper's rank-roulette (Figure 4).
    require_nonempty / threshold:
        Best-set policy, see
        :class:`~repro.search.best_set.BestProjectionSet`.
    random_state:
        Seed or numpy Generator for full determinism.

    The run state comes from the :class:`~repro.engine.context.RunContext`:
    its cancel token is polled at every generation boundary (and between
    parallel counting waves), and with a checkpointer the full GA state
    (population, RNG stream, best set, counters) is persisted atomically
    at generation boundaries, so ``resume_from=True`` continues
    bit-identically to an uninterrupted run.
    """

    algorithm = "evolutionary"

    def __init__(
        self,
        counter: CubeCounter,
        dimensionality: int,
        n_projections: int | None = 20,
        *,
        config: EvolutionaryConfig | None = None,
        crossover: str | CrossoverOperator = "optimized",
        selection: SelectionOperator | None = None,
        require_nonempty: bool = True,
        threshold: float | None = None,
        random_state=None,
    ):
        self._bind_counter(counter, dimensionality)
        self.n_projections = n_projections
        self.config = config or EvolutionaryConfig()
        if isinstance(crossover, CrossoverOperator):
            self.crossover: CrossoverOperator = crossover
        else:
            name = check_choice(crossover, _CROSSOVER_ALIASES, "crossover")
            self.crossover = _CROSSOVER_ALIASES[name](self.config)
        self.selection = selection or RankRouletteSelection()
        self.require_nonempty = require_nonempty
        self.threshold = threshold
        self.random_state = random_state

    # ------------------------------------------------------------------
    def _iterate(self, context: RunContext):
        """The GA main loop as a generator (see :class:`SearchEngine`).

        ``run()`` drives this to completion; an external driver can
        instead ``prepare``/``step`` it one generation boundary at a
        time.  A resumed run restores the RNG stream, population, best
        set and every counter from the last generation boundary, so its
        final result is bit-identical to the same run never having been
        interrupted.  Statement order inside the loop matches the
        pre-protocol implementation — the differential golden tests lock
        that down.
        """
        rng = check_rng(self.random_state)
        cfg = self.config
        evaluator = FitnessEvaluator(self.counter, self.dimensionality)
        mutation = BalancedMutation(
            cfg.mutation_swap_probability,
            cfg.mutation_flip_probability,
            self.counter.n_ranges,
        )
        convergence = DeJongConvergence(
            cfg.convergence_threshold, mode=cfg.convergence_mode
        )
        best = BestProjectionSet(
            self.n_projections,
            require_nonempty=self.require_nonempty,
            threshold=self.threshold,
        )

        state = self._load_resume_state(context)
        first_restart = 0
        history: list[GenerationRecord] = []
        # Run-wide totals shared with the boundary checkpoints.  The
        # time budget is per process invocation: a resumed run gets the
        # full ``max_seconds`` again (callers with one overall budget —
        # the RunController — pass the *remaining* budget down instead),
        # while ``elapsed_base`` keeps the reported elapsed time
        # cumulative across interruptions.
        totals = {"generations": 0, "converged": 0}
        elapsed_base = 0.0
        if state is not None:
            rng.bit_generator.state = state["rng_state"]
            best.restore_state(state["best_set"])
            evaluator.n_evaluations = _restored_number(state, "evaluations")
            totals["generations"] = _restored_number(state, "total_generations")
            totals["converged"] = _restored_number(state, "n_converged")
            elapsed_base = _restored_number(state, "elapsed_seconds", float)
            first_restart = _restored_number(state, "restart")
            history = [GenerationRecord(**record) for record in state["history"]]
            logger.info(
                "resuming evolutionary search at restart %d, generation %d "
                "(%d evaluations done)",
                first_restart, _restored_number(state, "generation"),
                evaluator.n_evaluations,
            )
        self._budget = RunBudget(
            context.cancel_token,
            context.merged_budget(cfg.max_seconds),
            elapsed_base=elapsed_base,
        )
        self._run = {
            "evaluator": evaluator,
            "best": best,
            "history": history,
            "totals": totals,
            "stopped_reason": "converged",
        }
        context.emit(
            "run_started",
            algorithm="evolutionary",
            dimensionality=self.dimensionality,
            n_projections=self.n_projections,
            restarts=cfg.restarts,
            resumed=state is not None,
        )
        with self.counter.runtime_binding(context.cancel_token, context.sink):
            yield  # prepare boundary: state built, no search work yet
            for restart in range(first_restart, cfg.restarts):
                generations, stopped_reason, dejong = yield from (
                    self._run_population(
                        context, rng, evaluator, mutation, convergence, best,
                        restart, history, totals, restored=state,
                    )
                )
                state = None
                totals["generations"] += generations
                totals["converged"] += int(dejong)
                self._run["stopped_reason"] = stopped_reason
                logger.debug(
                    "restart %d/%d: %d generations, stopped_reason=%s, best "
                    "set %d entries (best %.3f)",
                    restart + 1, cfg.restarts, generations, stopped_reason,
                    len(best),
                    best.best().coefficient if len(best) else float("nan"),
                )
                if stopped_reason == "deadline":
                    logger.warning("evolutionary search hit its time budget")
                    break
                if stopped_reason == "cancelled":
                    logger.warning(
                        "evolutionary search cancelled; returning best-so-far"
                    )
                    break
                if stopped_reason == "optimal":
                    break

    def _build_outcome(self, context: RunContext) -> SearchOutcome:
        run = self._require_run_state()
        cfg = self.config
        totals = run["totals"]
        budget = self._budget
        return SearchOutcome(
            projections=tuple(run["best"].entries()),
            completed=budget.reason is None,
            stats={
                "elapsed_seconds": budget.elapsed_seconds(),
                "generations": totals["generations"],
                "converged": totals["converged"] / cfg.restarts,
                "restarts": cfg.restarts,
                "evaluations": run["evaluator"].n_evaluations,
                "population_size": cfg.population_size,
                "algorithm": f"evolutionary/{type(self.crossover).__name__}",
            },
            history=tuple(run["history"]),
            stopped_reason=budget.reason or run["stopped_reason"],
        )

    def _run_population(
        self,
        context: RunContext,
        rng,
        evaluator: FitnessEvaluator,
        mutation: BalancedMutation,
        convergence: DeJongConvergence,
        best: BestProjectionSet,
        restart: int,
        history: list,
        totals: dict,
        restored: dict | None = None,
    ):
        """One population until convergence/caps; feeds the shared best set.

        A generator returning ``(generations, stopped_reason,
        dejong_converged)`` via ``yield from``; it yields at the top of
        every ``while`` iteration — the **safe boundary**: the
        population of generation *g* is fully evaluated and no RNG draws
        have happened since.  Checkpoints are written there (indexed by
        the run-wide generation count), the budget is checked there,
        then the best set's floor certificate
        (:meth:`~repro.search.best_set.BestProjectionSet.certified`:
        once it holds, no later string can enter the set, so the run
        stops ``optimal`` and skips any restarts left), and a
        cancellation that strikes *inside* the evolve step
        (mid-batch-count) discards the partial generation wholesale —
        the best set is only updated after the batch count returns, so
        the boundary state stays exact.  A generation is one C call
        where :func:`~repro.search.evolutionary.generation.fused_generation`
        serves it, and :func:`~repro.search.evolutionary.generation.breed`
        plus :meth:`_evaluate_and_track` otherwise; either way the best
        set is offered the feasible strings in population order.  A cancellation while seeding
        a population has no boundary to save yet; the last checkpoint
        written stays the resume point.
        """
        cfg = self.config
        budget = self._budget
        if restored is None:
            population = seed_population(
                self.counter.n_dims, self.dimensionality, self.counter.n_ranges,
                cfg.population_size, rng,
            )
            try:
                fitnesses = self._evaluate_and_track(population, evaluator, best)
            except SearchCancelled:
                return 0, budget.latch("cancelled"), False
            if cfg.track_history:
                history.append(
                    self._snapshot(restart, 0, population, fitnesses, best)
                )
            generation = 0
            stall = 0
            # `n_accepted` grows whenever the best set improves — both in
            # bounded top-m mode and in unbounded threshold mode.
            accepted_seen = best.n_accepted
        else:
            population, fitnesses = self._restore_population(restored)
            generation = _restored_number(restored, "generation")
            stall = _restored_number(restored, "stall")
            accepted_seen = _restored_number(restored, "accepted_seen")

        reason = "generation_cap"
        dejong = False
        while True:
            # ---- safe boundary: generation fully evaluated ----
            yield
            # The boundary's values are bound now; the state is built
            # only when a checkpoint is due.
            build_state = functools.partial(
                self._checkpoint_state, restart, generation, population,
                fitnesses, stall, accepted_seen, rng.bit_generator.state,
                evaluator.n_evaluations, best, history, totals,
            )

            boundary = generation + totals["generations"]
            stopped = self._at_boundary(context, boundary, build_state)
            if stopped is not None:
                reason = stopped
                break
            if best.certified():
                reason = "optimal"
                break
            if convergence.has_converged(population):
                reason = "converged"
                dejong = True
                break
            if generation >= cfg.max_generations:
                reason = "generation_cap"
                break
            operators = (
                population, fitnesses, evaluator, rng, self.selection,
                self.crossover,
            )
            try:
                fused = fused_generation(
                    *operators, mutation, cfg.elitism, cfg.crossover_rate
                )
                if fused is None:
                    offspring = breed(
                        *operators, mutation.apply, cfg.elitism,
                        cfg.crossover_rate,
                    )
                    offspring_fitnesses = self._evaluate_and_track(
                        offspring, evaluator, best
                    )
                else:
                    offspring, offspring_fitnesses, scored = fused
                    best.offer_batch(*scored)
            except SearchCancelled:
                # Discard the in-flight generation: population/fitnesses
                # still hold the boundary state and the best set was not
                # offered anything, so the snapshot below describes the
                # last completed boundary exactly.
                reason = budget.latch("cancelled")
                self._checkpoint(context, boundary, build_state, reason)
                break
            population, fitnesses = offspring, offspring_fitnesses
            generation += 1
            best_entry = best.best()
            context.emit(
                "generation_end",
                restart=restart,
                generation=generation,
                evaluations=evaluator.n_evaluations,
                best_set_size=len(best),
                best_coefficient=(
                    best_entry.coefficient if best_entry is not None else None
                ),
            )
            if cfg.track_history:
                history.append(
                    self._snapshot(restart, generation, population, fitnesses, best)
                )
            if cfg.stall_generations is not None:
                if best.n_accepted > accepted_seen:
                    accepted_seen = best.n_accepted
                    stall = 0
                else:
                    stall += 1
                    if stall >= cfg.stall_generations:
                        reason = "converged"
                        break
        return generation, reason, dejong

    def _checkpoint_state(
        self,
        restart: int,
        generation: int,
        population: np.ndarray,
        fitnesses: np.ndarray,
        stall: int,
        accepted_seen: int,
        rng_state,
        evaluations: int,
        best: BestProjectionSet,
        history: list,
        totals: dict,
    ) -> dict:
        """Full JSON-compatible GA state at a generation boundary."""
        return {
            "algorithm": self.algorithm,
            "restart": restart,
            "generation": generation,
            "population": population.tolist(),
            "fitnesses": fitnesses.tolist(),
            "stall": stall,
            "accepted_seen": accepted_seen,
            "rng_state": encode_rng_state(rng_state),
            "evaluations": evaluations,
            "best_set": best.to_state(),
            "total_generations": totals["generations"],
            "n_converged": totals["converged"],
            "elapsed_seconds": self._budget.elapsed_seconds(),
            "history": [asdict(record) for record in history],
        }

    def _restore_population(self, restored: dict) -> tuple:
        """The checkpointed population (over this run's grid) and fitnesses."""
        population = check_population(
            restored["population"], self.counter.n_dims, self.counter.n_ranges
        )
        try:
            fitnesses = np.array(restored["fitnesses"], dtype=np.float64)
        except (TypeError, ValueError):
            fitnesses = None
        if fitnesses is None or fitnesses.shape != (len(population),):
            raise ValidationError(
                f"checkpoint needs {len(population)} fitnesses, one per string"
            )
        return population, fitnesses

    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot(
        restart: int,
        generation: int,
        population: np.ndarray,
        fitnesses: np.ndarray,
        best: BestProjectionSet,
    ) -> GenerationRecord:
        """One history record (only built when track_history is on)."""
        best_entry = best.best()
        finite = fitnesses[fitnesses != INFEASIBLE_FITNESS]
        return GenerationRecord(
            restart=restart,
            generation=generation,
            best_coefficient=(
                best_entry.coefficient if best_entry is not None else float("nan")
            ),
            best_set_size=len(best),
            population_best=float(finite.min()) if len(finite) else float("inf"),
            n_feasible=len(finite),
            convergence=modal_share(population),
        )

    @staticmethod
    def _evaluate_and_track(
        population: np.ndarray,
        evaluator: FitnessEvaluator,
        best: BestProjectionSet,
    ) -> np.ndarray:
        """Fitness of every string; feasible ones feed the best set.

        The generation's feasible strings are counted in one
        :meth:`~repro.grid.counter.CubeCounter.count_genes` call, which
        a parallel counting backend fans out to its worker pool.
        Feasible strings are offered in population order through
        :meth:`BestProjectionSet.offer_batch`, so the best-set
        contents (including tie-breaks) match per-solution scoring, and
        only accepted cubes become :class:`ScoredProjection` objects.
        """
        rows, dims, ranges, counts, coefficients = evaluator._score_feasible(
            population
        )
        fitnesses = np.full(len(population), INFEASIBLE_FITNESS)
        fitnesses[rows] = coefficients
        best.offer_batch(dims, ranges, counts, coefficients)
        return fitnesses
