"""Fitness evaluation for GA solutions.

The population-scale entry points take a gene matrix, one string per
row: :meth:`FitnessEvaluator.partial_fitness_batch` (the optimized
crossover's candidates) and :meth:`FitnessEvaluator.score_batch` (a
whole population); the one-string methods take a
:class:`~repro.search.evolutionary.encoding.Solution`.

Fitness of a feasible solution is the sparsity coefficient of the cube
it encodes (more negative = fitter).  A string whose dimensionality
deviates from the run's k — possible only under the two-point crossover
baseline — receives :data:`INFEASIBLE_FITNESS` so that selection drives
it out of the population, exactly as §2.2 prescribes ("assigned very
low fitness values"; low fitness here means a *large* coefficient since
we minimize).

Partial strings (fewer than k fixed genes) arising *inside* the
optimized crossover are scored at their **own** dimensionality — Eq. 1
with that k — because coefficients at different dimensionalities are
not comparable (§1.1 desiderata); the crossover only ever compares
partials of equal dimensionality, so its greedy choices are sound.
"""

from __future__ import annotations

import functools

import numpy as np

from ...core.results import ScoredProjection
from ...core.subspace import Subspace
from ...exceptions import ValidationError
from ...grid.counter import CubeCounter
from ...sparsity.coefficient import (
    cube_count_std,
    expected_count,
    sparsity_coefficient,
)
from ..._validation import check_positive_int
from .encoding import Solution, WILDCARD_GENE, check_population

__all__ = ["INFEASIBLE_FITNESS", "FitnessEvaluator"]

#: Fitness assigned to strings of the wrong dimensionality.  +inf makes
#: them strictly worse than any real cube under minimization.
INFEASIBLE_FITNESS = float("inf")


@functools.lru_cache(maxsize=8)
def _null_moments(
    n_points: int, n_ranges: int, n_dims: int
) -> tuple[np.ndarray, np.ndarray]:
    """Equation 1's ``(N·f^k, sqrt(N·f^k·(1−f^k)))`` for k = 0..d, as two
    read-only arrays indexed by k (entry 0 is never read)."""
    ks = range(n_dims + 1)
    mean = np.array([expected_count(n_points, n_ranges, k) for k in ks])
    std = np.array([cube_count_std(n_points, n_ranges, k) for k in ks])
    mean.flags.writeable = std.flags.writeable = False
    return mean, std


class FitnessEvaluator:
    """Scores solutions against a fixed grid and target dimensionality.

    Parameters
    ----------
    counter:
        Cube counting engine.
    dimensionality:
        The run's k; strings of any other dimensionality are infeasible.
    """

    def __init__(self, counter: CubeCounter, dimensionality: int):
        if not isinstance(counter, CubeCounter):
            raise ValidationError(
                f"counter must be a CubeCounter, got {type(counter).__name__}"
            )
        self.counter = counter
        self.dimensionality = check_positive_int(dimensionality, "dimensionality")
        if self.dimensionality > counter.n_dims:
            raise ValidationError(
                f"dimensionality ({self.dimensionality}) exceeds data "
                f"dimensionality ({counter.n_dims})"
            )
        if counter.n_ranges < 2:
            raise ValidationError("fitness evaluation requires a grid with φ >= 2")
        self.n_evaluations = 0

    # ------------------------------------------------------------------
    def partial_fitness(self, solution: Solution) -> float:
        """Coefficient at the string's *own* dimensionality (crossover use).

        The 0-dimensional all-wildcard string scores 0 (it is the whole
        dataset; neither sparse nor dense).
        """
        k = solution.dimensionality
        if k == 0:
            return 0.0
        self.n_evaluations += 1
        count = self.counter.count(solution.to_subspace())
        return sparsity_coefficient(
            count, self.counter.n_points, self.counter.n_ranges, k
        )

    def partial_fitness_batch(self, genes) -> np.ndarray:
        """:meth:`partial_fitness` of every row of a ``(C, d)`` gene matrix.

        Row *i* scores exactly as ``partial_fitness(Solution(genes[i]))``
        would — at the row's own dimensionality, all-wildcard rows 0.0
        and not counted in :attr:`n_evaluations` — but the rows are
        counted with one
        :meth:`~repro.grid.counter.CubeCounter.count_genes` call,
        whatever mix of dimensionalities they hold (``count_calls``
        matches the per-row path), and scored with the vectorized
        Equation 1.  This is the optimized crossover's hot path.

        Returns a float array aligned with the rows (empty for no rows).
        """
        if len(genes) == 0:
            return np.zeros(0)
        genes = check_population(genes)
        fitness = np.zeros(len(genes))
        rows, _, coefficients = self._score_rows(genes)
        fitness[rows] = coefficients
        return fitness

    def fused_generation(self, population, fitnesses, rng, **operators):
        """One GA generation of the ``(p, d)`` *population* in one C call
        over the counter's row blocks, or ``None`` where the counter does
        not serve it.

        See :meth:`~repro.grid.counter.CubeCounter.generation`, which
        takes the *operators* keywords: the strings are scored with the
        Equation 1 table :meth:`_score_rows` reads, and the crossover
        candidates and strings counted are added to
        :attr:`n_evaluations`, as the operators add them.  Returns
        ``(population, fitnesses, scored)``, *scored* being the scored
        strings' ``(dims, ranges, counts, coefficients)`` in row order.
        """
        counter = self.counter
        mean, std = _null_moments(counter.n_points, counter.n_ranges, counter.n_dims)
        fused = counter.generation(
            population, fitnesses, self.dimensionality, mean, std, rng, **operators
        )
        if fused is None:
            return None
        population, fitnesses, scored, stats = fused
        self.n_evaluations += stats["candidates"] + stats["rows"]
        return population, fitnesses, scored

    def _score_rows(self, genes: np.ndarray) -> tuple:
        """Count and score every non-all-wildcard row in one count call.

        Returns ``(rows, counts, coefficients)``: the indices of the rows
        that fix a gene (ascending) and, aligned with them, their counts
        and their coefficients, each at the row's own k.  Equation 1 is
        read from a per-k table of its mean and deviation, built with
        the scalar arithmetic of
        :func:`~repro.sparsity.coefficient.sparsity_coefficients`, so
        every coefficient is bit-identical to it.  Shared by
        :meth:`partial_fitness_batch` and :meth:`_score_feasible`.
        """
        counter = self.counter
        ks = (genes != WILDCARD_GENE).sum(axis=1)
        rows = np.flatnonzero(ks)
        if len(rows) == 0:
            return rows, np.empty(0, dtype=np.int64), np.empty(0)
        counts = counter.count_genes(genes if len(rows) == len(genes) else genes[rows])
        self.n_evaluations += len(rows)
        mean, std = _null_moments(counter.n_points, counter.n_ranges, counter.n_dims)
        ks = ks[rows]
        return rows, counts, (counts - mean[ks]) / std[ks]

    def score(self, solution: Solution) -> ScoredProjection | None:
        """Full :class:`ScoredProjection` for a feasible string, else None."""
        if not solution.is_feasible(self.dimensionality):
            return None
        subspace = solution.to_subspace()
        self.n_evaluations += 1
        count = self.counter.count(subspace)
        coefficient = sparsity_coefficient(
            count, self.counter.n_points, self.counter.n_ranges, self.dimensionality
        )
        return ScoredProjection(subspace, count, coefficient)

    def score_batch(self, genes) -> list[ScoredProjection | None]:
        """Score every row of a ``(p, d)`` gene matrix through one batched count.

        Feasible rows are counted with a single
        :meth:`~repro.grid.counter.CubeCounter.count_genes` call and
        scored with the vectorized Equation 1.  Entry ``i`` is ``None``
        exactly when :meth:`score` would return ``None`` for
        ``Solution(genes[i])``, and the scored values are identical to
        the per-solution path.  No rows score as an empty list.
        """
        if len(genes) == 0:
            return []
        genes = check_population(genes)
        results: list[ScoredProjection | None] = [None] * len(genes)
        rows, dims, ranges, counts, coefficients = self._score_feasible(genes)
        for i, dims_row, ranges_row, count, coefficient in zip(
            rows.tolist(), dims.tolist(), ranges.tolist(), counts.tolist(),
            coefficients.tolist(), strict=True,
        ):
            results[i] = ScoredProjection(
                Subspace(tuple(dims_row), tuple(ranges_row)), count, coefficient
            )
        return results

    def _score_feasible(self, genes: np.ndarray) -> tuple:
        """Count and score the feasible rows of a gene matrix in one batch.

        Returns ``(rows, dims, ranges, counts, coefficients)``: the
        indices of the feasible rows (ascending) and, aligned with
        them, their ``(n, k)`` cube arrays, counts and coefficients.
        Shared by :meth:`score_batch` and the engine's population
        scoring, which offers the arrays to the best set.
        """
        k = self.dimensionality
        fixed = genes != WILDCARD_GENE
        rows = np.flatnonzero(fixed.sum(axis=1) == k)
        feasible, fixed = genes[rows], fixed[rows]
        _, counts, coefficients = self._score_rows(feasible)
        dims = np.nonzero(fixed)[1].reshape(len(rows), k)
        return rows, dims, feasible[fixed].reshape(len(rows), k), counts, coefficients
