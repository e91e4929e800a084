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

:class:`BalancedMutation` mutates a ``(p, d)`` gene matrix: a loop makes
each string's draws in turn, then the moves apply to the matrix at once.
A draw names a gene by its rank among the string's wildcard or fixed
genes; the local searchers draw their moves through the same helpers.
"""

from __future__ import annotations

import numpy as np

from ..._validation import check_positive_int, check_probability, check_rng
from .encoding import WILDCARD_GENE, check_population

__all__ = ["BalancedMutation"]


def draw_swap(n_wildcards: int, n_fixed: int, n_ranges: int, rng) -> tuple:
    """Type I: the *gain*-th wildcard takes *value*, the *lose*-th fixed gene ``*``."""
    gain = int(rng.integers(n_wildcards))
    lose = int(rng.integers(n_fixed))
    return gain, lose, int(rng.integers(n_ranges))


def draw_flip(n_fixed: int, n_ranges: int, rng) -> tuple:
    """Type II: the *position*-th fixed gene moves by 1..φ-1 (modulo φ)."""
    return int(rng.integers(n_fixed)), int(rng.integers(1, n_ranges))


def apply_moves(genes: np.ndarray, swaps: list, flips: list, n_ranges: int) -> None:
    """Apply drawn moves to *genes* in place, every swap before every flip.

    A Type I swap is ``(row, gain, lose, value)``, a Type II flip
    ``(row, position, offset)``.
    """
    if swaps:
        rows, gain, lose, value = np.array(swaps).T
        fixed = genes[rows] != WILDCARD_GENE
        genes[rows, _nth(~fixed, gain)] = value
        genes[rows, _nth(fixed, lose)] = WILDCARD_GENE
    if flips:
        rows, position, offset = np.array(flips).T
        at = _nth(genes[rows] != WILDCARD_GENE, position)
        genes[rows, at] = (genes[rows, at] + offset) % n_ranges


def _nth(mask: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Column of each row's ``index``-th (0-based) true entry of *mask*."""
    return np.argmax(np.cumsum(mask, axis=1) > index[:, None], axis=1)


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

    def apply(self, population, random_state) -> np.ndarray:
        """Mutate every string of a ``(p, d)`` gene matrix independently.

        Returns a new matrix; the input is not modified.  A Type II
        flip picks among the fixed genes *after* the string's Type I
        swap, as Figure 6 applies the two in turn.
        """
        rng = check_rng(random_state)
        genes = check_population(population).copy()
        n_dims = genes.shape[1]
        swaps, flips = [], []
        for row, n_fixed in enumerate((genes != WILDCARD_GENE).sum(axis=1).tolist()):
            # A swap keeps the fixed-gene count, so the flip draws below
            # see the same count whether or not the string swapped.
            if rng.random() < self.swap_probability and 0 < n_fixed < n_dims:
                swaps.append(
                    (row, *draw_swap(n_dims - n_fixed, n_fixed, self.n_ranges, rng))
                )
            if rng.random() < self.flip_probability and n_fixed and self.n_ranges > 1:
                flips.append((row, *draw_flip(n_fixed, self.n_ranges, rng)))
        apply_moves(genes, swaps, flips, self.n_ranges)
        return genes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BalancedMutation(p1={self.swap_probability}, "
            f"p2={self.flip_probability}, phi={self.n_ranges})"
        )
