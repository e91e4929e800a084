"""Mutation operator (Figure 6): balanced dimension swaps + range flips.

Two mutation types, each gated by its own coin flip per string per
generation:

* **Type I** (probability ``p1``): a random wildcard position gains a
  random range (1..φ) *and* a random fixed position becomes ``*`` —
  a paired swap, so "the total dimensionality of the projection
  represented by a string remains unchanged by the process of
  mutation".
* **Type II** (probability ``p2``): one fixed position's range is
  re-drawn to a *different* value in 1..φ.

The paper uses ``p1 = p2``.  Both mutations are skipped gracefully when
structurally impossible (no wildcards for Type I with k = d, no fixed
genes on a degenerate string, φ = 1 for Type II).
"""

from __future__ import annotations

from ..._validation import check_positive_int, check_probability, check_rng
from .encoding import Solution, WILDCARD_GENE

__all__ = ["BalancedMutation"]


class BalancedMutation:
    """Figure 6's mutation over a whole population.

    Parameters
    ----------
    swap_probability:
        ``p1`` — chance of a Type I dimension swap per string.
    flip_probability:
        ``p2`` — chance of a Type II range flip per string.
    n_ranges:
        φ, the allele count for fixed genes.
    """

    def __init__(
        self,
        swap_probability: float,
        flip_probability: float,
        n_ranges: int,
    ):
        self.swap_probability = check_probability(swap_probability, "swap_probability")
        self.flip_probability = check_probability(flip_probability, "flip_probability")
        self.n_ranges = check_positive_int(n_ranges, "n_ranges")

    # ------------------------------------------------------------------
    def mutate(self, solution: Solution, random_state) -> Solution:
        """Return the (possibly) mutated copy of one string."""
        rng = check_rng(random_state)
        genes = list(solution.genes)

        # Type I: swap a wildcard and a fixed position (Q and its complement
        # are taken from the *original* string, as in Figure 6).
        if rng.random() < self.swap_probability:
            wildcards = [i for i, g in enumerate(genes) if g == WILDCARD_GENE]
            fixed = [i for i, g in enumerate(genes) if g != WILDCARD_GENE]
            if wildcards and fixed:
                gain = wildcards[int(rng.integers(len(wildcards)))]
                lose = fixed[int(rng.integers(len(fixed)))]
                genes[gain] = int(rng.integers(self.n_ranges))
                genes[lose] = WILDCARD_GENE

        # Type II: re-draw one fixed range to a different allele.
        if rng.random() < self.flip_probability:
            fixed = [i for i, g in enumerate(genes) if g != WILDCARD_GENE]
            if fixed and self.n_ranges > 1:
                pos = fixed[int(rng.integers(len(fixed)))]
                offset = int(rng.integers(1, self.n_ranges))
                genes[pos] = (genes[pos] + offset) % self.n_ranges

        if genes == list(solution.genes):
            return solution
        return Solution(genes)

    def apply(self, solutions: list[Solution], random_state) -> list[Solution]:
        """Mutate every string in the population independently."""
        rng = check_rng(random_state)
        return [self.mutate(s, rng) for s in solutions]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BalancedMutation(p1={self.swap_probability}, "
            f"p2={self.flip_probability}, phi={self.n_ranges})"
        )
