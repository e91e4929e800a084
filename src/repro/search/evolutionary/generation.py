"""One generation of Figure 3's loop: the operators, or one C call.

A generation keeps the elites aside, selects (Figure 4), pairs and
recombines (Figure 5), mutates (Figure 6), puts the elites back in
place of the last strings and scores the new population.
:func:`breed` runs the operators in that order, and the engine scores
what they return.

Where the counter serves it, :func:`fused_generation` runs all of that
in one call of :class:`~repro.grid.native.NativeGeneration` over the
counter's row blocks, drawing from the run's
:class:`numpy.random.Generator` what the operators draw, in their
order: the rank roulette as numpy 2.x's ``rng.choice(p, p, p=w)``, the
pairing as its ``rng.permutation(p)``, then the crossover-rate and
mutation draws.  A selection other than the default rank roulette
draws its rows in Python (:meth:`SelectionOperator.choose`) and hands
them to the call.  The operators stay the reference and the path
everywhere else, and this module holds the proof that the two agree
(:func:`_prove_generation`), since the grid layer does not import the
operators.  A numpy that draws ``choice`` or ``permutation``
differently fails the proof, which is logged once, and the operators
serve.
"""

from __future__ import annotations

import numpy as np

from ...grid.backends import (
    BackendConformanceError,
    pack_codes,
    proof_layouts,
    proven_gate,
)
from ...grid.cells import MISSING_CELL, CellAssignment
from ...grid.counter import CubeCounter
from ...grid.native import MUTATE_LIMIT, NativeGeneration
from .crossover import CrossoverOperator, OptimizedCrossover
from .encoding import WILDCARD_GENE
from .mutation import BalancedMutation, _same_state
from .population import INFEASIBLE_FITNESS, FitnessEvaluator, _null_moments
from .selection import (
    RankRouletteSelection,
    SelectionOperator,
    TournamentSelection,
    UniformSelection,
)

__all__ = ["breed", "fused_generation"]


def breed(
    population: np.ndarray,
    fitnesses: np.ndarray,
    evaluator: FitnessEvaluator,
    rng,
    selection: SelectionOperator,
    crossover: CrossoverOperator,
    mutate,
    elitism: int,
    crossover_rate: float,
) -> np.ndarray:
    """The next, unscored population by the operators.

    *mutate* is the mutation's ``apply`` (or, in the proof, its Python
    loop).  The *elitism* fittest strings (a stable sort of the
    fitnesses) replace the tail of the new population verbatim,
    shielding them from crossover and mutation.
    """
    elites = population[np.argsort(fitnesses, kind="stable")[:elitism]]
    offspring = selection.select(population, fitnesses, rng)
    offspring = crossover.apply(offspring, evaluator, rng, crossover_rate)
    offspring = mutate(offspring, rng)
    if len(elites):
        offspring[-len(elites):] = elites
    return offspring


def fused_generation(
    population: np.ndarray,
    fitnesses: np.ndarray,
    evaluator: FitnessEvaluator,
    rng,
    selection: SelectionOperator,
    crossover: CrossoverOperator,
    mutation: BalancedMutation,
    elitism: int,
    crossover_rate: float,
) -> tuple | None:
    """The next population, its fitnesses and its scored strings'
    ``(dims, ranges, counts, coefficients)`` from one C call, or
    ``None``: then nothing was drawn, and :func:`breed` serves.

    Served for the optimized crossover at k it enumerates exactly, on a
    counter that serves the call
    (:meth:`~repro.grid.counter.CubeCounter.serves_generation`), once
    :func:`_generation_serves`.  *rng*'s state is taken first and put
    back when the call fails, so the operators then draw what the call
    would have drawn, *selection*'s rows included.
    """
    counter = evaluator.counter
    k = evaluator.dimensionality
    if not (
        type(crossover) is OptimizedCrossover
        and k <= crossover.max_exact_positions
        and max(mutation.n_ranges, counter.n_dims) < MUTATE_LIMIT
        and counter.serves_generation(k)
        and _generation_serves()
    ):
        return None
    state = rng.bit_generator.state
    chosen = (
        None if type(selection) is RankRouletteSelection
        else selection.choose(fitnesses, rng)
    )
    fused = evaluator.fused_generation(
        population, fitnesses, rng, elitism=elitism,
        crossover_rate=crossover_rate,
        swap_probability=mutation.swap_probability,
        flip_probability=mutation.flip_probability, chosen=chosen,
    )
    if fused is None:
        rng.bit_generator.state = state
    return fused


#: (bit generator, φ, grid rows, d, k, p, elitism, crossover rate,
#: selection, spread) of each proof case; ``None`` is the rank roulette
#: drawn in C, any other operator hands its rows in.  The strings fix
#: their genes among the first *spread* dimensions: k + 1 makes genes
#: coincide, d gives greedy steps with more than four candidates.
_PROOF_CASES = (
    (np.random.PCG64, 2, 150, 6, 2, 16, 0, 1.0, None, 3),
    (np.random.MT19937, 3, 131, 7, 3, 15, 2, 0.6, TournamentSelection(3), 4),
    (np.random.Philox, 3, 131, 7, 5, 14, 2, 1.0, None, 6),
    (np.random.SFC64, 2, 150, 6, 1, 13, 0, 0.6, UniformSelection(), 2),
    (np.random.PCG64, 3, 131, 12, 4, 14, 0, 1.0, None, 12),
)


def _prove_generation() -> None:
    """Prove :class:`~repro.grid.native.NativeGeneration` draw-for-draw
    identical to the operators on a fixture.

    Each case of :data:`_PROOF_CASES` grids codes with missing values,
    seeds a population whose strings fix k genes among the first
    *spread* dimensions with values 0 and 1 (so genes coincide and pairs
    have both free and forced Type II genes), plus a string fixing k + 1
    genes and one fixing none, and fitnesses with ties and ``+inf``,
    then runs three generations.  Each generation runs
    :func:`breed` (with the staged crossover and the mutation's Python
    loop, so no other proof runs) and scores its strings as the engine
    does, and runs the C call from the same generator state over the
    whole stack, over 64-row blocks and over those blocks as the filled
    prefix of buffers whose spare word is all ones.  The genes,
    fitnesses, scored strings, the counting figures the counter booked
    and ``bit_generator.state`` must be equal.  Raises
    :class:`~repro.grid.backends.BackendConformanceError` on the first
    divergence.
    """
    draw = np.random.default_rng(577215)
    crossover = OptimizedCrossover()
    for case in _PROOF_CASES:
        bit_rng, phi, n_rows, n_dims, k, p, elitism, rate, chooser, spread = case
        codes = draw.integers(0, phi, size=(n_rows, n_dims)).astype(np.int16)
        codes[draw.random(codes.shape) < 0.1] = MISSING_CELL
        counter = CubeCounter(CellAssignment(codes, phi))
        evaluator = FitnessEvaluator(counter, k)
        layouts = proof_layouts(pack_codes(codes, phi).view(np.uint64))
        mean, std = _null_moments(n_rows, phi, n_dims)
        mutation = BalancedMutation(0.5, 0.5, phi)
        selection = chooser or RankRouletteSelection()
        genes = np.full((p, n_dims), WILDCARD_GENE)
        for row in genes[2:]:
            dims = draw.choice(spread, size=k, replace=False)
            row[dims] = draw.integers(0, 2, size=k)
        genes[0, : k + 1] = 1
        fitnesses = np.round(draw.normal(size=p), 1)
        fitnesses[draw.random(p) < 0.2] = INFEASIBLE_FITNESS
        slow = np.random.Generator(bit_rng(314159))
        for generation in range(3):
            state = slow.bit_generator.state
            before = _figures(counter, evaluator)
            want = breed(
                genes, fitnesses, evaluator, slow, selection, crossover,
                mutation._mutate_loop, elitism, rate,
            )
            rows, dims, ranges, counts, coefficients = evaluator._score_feasible(want)
            want_fitnesses = np.full(p, INFEASIBLE_FITNESS)
            want_fitnesses[rows] = coefficients
            booked = [now - then for now, then in zip(
                _figures(counter, evaluator), before, strict=True
            )]
            for layout in layouts:
                fast = np.random.Generator(bit_rng(314159))
                fast.bit_generator.state = state
                chosen = None if chooser is None else chooser.choose(fitnesses, fast)
                got, got_fitnesses, scored, stats = NativeGeneration(
                    layout, genes, fitnesses, k, mean, std, fast, elitism=elitism,
                    crossover_rate=rate, swap_probability=0.5,
                    flip_probability=0.5, chosen=chosen,
                )()
                cubes = stats["candidates"] + stats["rows"]
                if not (
                    np.array_equal(got, want)
                    and np.array_equal(got_fitnesses, want_fitnesses)
                    and all(map(np.array_equal, scored, (dims, ranges, counts, coefficients)))
                    and booked == [
                        stats["stages"] + (stats["rows"] > 0), cubes, cubes,
                        stats["words_and"], cubes,
                    ]
                    and _same_state(fast.bit_generator.state, slow.bit_generator.state)
                ):
                    raise BackendConformanceError(
                        "the C generation failed its differential self-check "
                        f"({bit_rng.__name__}, phi={phi}, k={k}, p={p}, "
                        f"{len(layout)} row blocks, generation {generation}): its "
                        "strings, scores, counting figures or generator state "
                        "diverge from the operators'"
                    )
            genes, fitnesses = want, want_fitnesses


def _figures(counter: CubeCounter, evaluator: FitnessEvaluator) -> list[int]:
    """The counting figures a generation books, and the evaluations."""
    return [
        counter.n_batch_calls, counter.n_batch_cubes, counter.n_count_calls,
        counter.n_words_and, evaluator.n_evaluations,
    ]


#: Whether the one-call generation may serve in this process: once the
#: C library serves and :func:`_prove_generation` has passed (a failed
#: proof is logged once and keeps the operators).
_generation_serves = proven_gate(_prove_generation, "the GA runs its operators")
