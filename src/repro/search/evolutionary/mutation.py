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

Where the C library serves, one call of
:func:`~repro.grid.native.native_mutate` runs that loop instead,
drawing from the caller's :class:`numpy.random.Generator` through its
bit generator's C interface: the same draws in the same order, so the
genes and the generator's state afterwards are the loop's.  The loop
stays the reference and the path without a compiler, and this module
holds the proof that the two agree (:func:`_prove_mutation`), since the
grid layer does not import this one.  A numpy whose bounded
``integers`` draws differently fails the proof, which is logged once,
and the loop serves.
"""

from __future__ import annotations

import numpy as np

from ..._validation import check_positive_int, check_probability, check_rng
from ...exceptions import ResourceError
from ...grid.backends import BackendConformanceError, proven_gate
from ...grid.native import MUTATE_LIMIT, native_mutate
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
        swap, as Figure 6 applies the two in turn.  One C call
        (:func:`~repro.grid.native.native_mutate`) mutates the matrix
        once :func:`_mutation_serves`, else the Python loop
        (:meth:`_mutate_loop`) does; both give the same matrix and leave
        the generator in the same state.  Genes must lie in ``-1..φ-1``.
        """
        rng = check_rng(random_state)
        genes = check_population(population, n_ranges=self.n_ranges)
        if max(self.n_ranges, genes.shape[1]) < MUTATE_LIMIT and _mutation_serves():
            try:
                return native_mutate(
                    genes, self.n_ranges, self.swap_probability,
                    self.flip_probability, rng,
                )
            except ResourceError:
                pass  # the library cannot be loaded now; nothing was drawn
        return self._mutate_loop(genes, rng)

    def _mutate_loop(self, genes: np.ndarray, rng) -> np.ndarray:
        """:meth:`apply` in Python on a copy of a checked gene matrix: the
        reference :func:`_prove_mutation` holds the C routine to."""
        genes = genes.copy()
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


#: φ values the proof mutates under: no Type II flip (1), a flip with
#: no offset draw (2), the paper's grid (10), and 3·2^29, where about a
#: quarter of numpy's bounded 32-bit draws are rejected and redrawn.
_PROOF_RANGES = (1, 2, 10, 3 << 29)


def _prove_mutation() -> None:
    """Prove :func:`~repro.grid.native.native_mutate` draw-for-draw
    identical to :meth:`BalancedMutation._mutate_loop` on a fixture.

    Under each of numpy's PCG64, MT19937, Philox and SFC64 bit
    generators and each φ of :data:`_PROOF_RANGES`, two generators of
    one seed mutate one population for three generations in a row, one
    through the C routine and one through the loop: a row with every
    gene fixed (k = d), a row of wildcards only and rows of random k,
    plus a one-column population.  The genes and both
    ``bit_generator.state`` must be equal after every generation.
    Raises :class:`~repro.grid.backends.BackendConformanceError` on the
    first divergence.
    """
    seeds = np.random.default_rng(161803)
    for bit_rng in (
        np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64
    ):
        for phi in _PROOF_RANGES:
            mutation = BalancedMutation(0.6, 0.6, phi)
            for n_rows, n_dims in ((24, 7), (4, 1)):
                genes = np.where(
                    seeds.random((n_rows, n_dims)) < seeds.random((n_rows, 1)),
                    seeds.integers(0, phi, size=(n_rows, n_dims)),
                    WILDCARD_GENE,
                )
                genes[0], genes[1] = 0, WILDCARD_GENE
                fast = np.random.Generator(bit_rng(314159))
                slow = np.random.Generator(bit_rng(314159))
                want = genes
                for generation in range(3):
                    genes = native_mutate(genes, phi, 0.6, 0.6, fast)
                    want = mutation._mutate_loop(want, slow)
                    if not (
                        np.array_equal(genes, want)
                        and _same_state(
                            fast.bit_generator.state, slow.bit_generator.state
                        )
                    ):
                        raise BackendConformanceError(
                            "the C mutation failed its differential self-check "
                            f"({bit_rng.__name__}, phi={phi}, d={n_dims}, "
                            f"generation {generation}): its genes or generator "
                            "state diverge from the Python loop's"
                        )


#: Whether the C mutation may serve in this process: once the C library
#: serves and :func:`_prove_mutation` has passed (a failed proof is
#: logged once and keeps the Python loop).
_mutation_serves = proven_gate(_prove_mutation, "mutation runs in Python")


def _same_state(first, second) -> bool:
    """Whether two ``bit_generator.state`` values are equal (their
    leaves may be numpy arrays)."""
    if isinstance(first, dict):
        return (
            isinstance(second, dict)
            and first.keys() == second.keys()
            and all(_same_state(first[key], second[key]) for key in first)
        )
    return bool(np.array_equal(first, second))
