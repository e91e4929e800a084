"""Selection operators (Figure 4 and ablation variants).

The paper uses **rank selection** with a roulette wheel: solutions are
ranked by sparsity coefficient (most negative first, rank 1) and the
wheel gives the i-th ranked solution a slice proportional to ``p − r(i)``
where ``p`` is the population size.  Rank selection is preferred over
fitness-proportional sampling because it is "often more stable" — the
coefficient's scale varies wildly across datasets and generations, and
rank selection is invariant to it.

Three extra operators are provided for the selection ablation benchmark:
tournament, fitness-proportional (on shifted coefficients), and uniform
(a no-pressure control).

Every operator resamples a ``(p, d)`` gene matrix: it draws the p row
indices of the survivors (:meth:`SelectionOperator.choose`) and
:meth:`SelectionOperator.select` gathers those rows into the new
matrix.
"""

from __future__ import annotations

import abc

import numpy as np

from ..._validation import check_positive_int, check_rng
from ...exceptions import ValidationError
from .encoding import check_population

__all__ = [
    "SelectionOperator",
    "RankRouletteSelection",
    "TournamentSelection",
    "FitnessProportionalSelection",
    "UniformSelection",
]


def _ranks_most_negative_first(fitnesses) -> np.ndarray:
    """1-based ranks; the most negative fitness gets rank 1.

    Ties break by population position, which keeps runs deterministic
    for a fixed seed.
    """
    order = np.argsort(np.asarray(fitnesses), kind="stable")
    ranks = np.empty(len(fitnesses), dtype=np.int64)
    ranks[order] = np.arange(1, len(fitnesses) + 1)
    return ranks


class SelectionOperator(abc.ABC):
    """Resamples a population of p strings into a new one of size p."""

    def select(self, population, fitnesses, random_state) -> np.ndarray:
        """The selected ``(p, d)`` gene matrix (rows drawn with replacement).

        *fitnesses* aligns with the rows of *population*; the input
        matrix is not modified.
        """
        genes = check_population(population)
        fitnesses = np.asarray(fitnesses, dtype=np.float64)
        if fitnesses.shape != (len(genes),):
            raise ValidationError(f"need {len(genes)} fitnesses, one per string")
        return genes[self.choose(fitnesses, check_rng(random_state))]

    @abc.abstractmethod
    def choose(self, fitnesses: np.ndarray, rng) -> np.ndarray:
        """Row indices of the p selected strings, in selection order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RankRouletteSelection(SelectionOperator):
    """Figure 4: roulette wheel with slice ∝ ``p − r(i)``.

    The worst-ranked solution gets weight 0 and is never selected —
    a literal reading of the paper's die.  With a single-solution
    population the solution passes through unchanged.
    """

    def choose(self, fitnesses, rng):
        p = len(fitnesses)
        if p <= 1:
            return np.arange(p)
        ranks = _ranks_most_negative_first(fitnesses)
        weights = (p - ranks).astype(np.float64)
        return rng.choice(p, size=p, replace=True, p=weights / weights.sum())


class TournamentSelection(SelectionOperator):
    """Pick the best of *size* uniformly drawn contenders, p times."""

    def __init__(self, size: int = 2):
        self.size = check_positive_int(size, "size", minimum=2)

    def choose(self, fitnesses, rng):
        p = len(fitnesses)
        if p <= 1:
            return np.arange(p)
        contenders = np.array([rng.integers(0, p, size=self.size) for _ in range(p)])
        winners = np.argmin(fitnesses[contenders], axis=1)
        return contenders[np.arange(p), winners]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TournamentSelection(size={self.size})"


class FitnessProportionalSelection(SelectionOperator):
    """Classic roulette on shifted fitness (ablation only).

    Sparsity coefficients are negative-is-better and unbounded, so raw
    proportional sampling is ill-defined; weights are taken as
    ``max_fitness − fitness`` (non-negative, best gets the largest
    slice).  This exhibits exactly the instability the paper cites as
    the reason to prefer rank selection.
    """

    def choose(self, fitnesses, rng):
        p = len(fitnesses)
        if p <= 1:
            return np.arange(p)
        finite = np.isfinite(fitnesses)
        if not finite.any():
            return rng.integers(0, p, size=p)
        ceiling = fitnesses[finite].max()
        weights = np.where(finite, ceiling - fitnesses, 0.0)
        total = weights.sum()
        if total <= 0:
            # All finite solutions tie: sample uniformly among them.
            weights = finite.astype(np.float64)
            total = weights.sum()
        return rng.choice(p, size=p, replace=True, p=weights / total)


class UniformSelection(SelectionOperator):
    """No selection pressure at all — the ablation control."""

    def choose(self, fitnesses, rng):
        return rng.integers(0, len(fitnesses), size=len(fitnesses))
