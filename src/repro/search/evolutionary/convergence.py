"""Termination criteria: De Jong gene convergence and a sparse-string refinement.

The paper terminates "when the population converged", citing De Jong's
criterion: a *gene* has converged when 95% of the population holds the
same value at that position, and the population has converged when
**every** gene has.

For this problem's encoding, the classic per-gene reading is degenerate
whenever ``k ≪ d``: a random feasible string fixes only k of d genes,
so from the very first generation ~``(1 − k/d)`` of the population
holds ``*`` at every locus and each gene trivially passes the 95% bar.
(With the paper's arrhythmia run — k ≈ 2-3 against d = 279 — a fresh
random population is already "converged".)  We therefore provide two
modes:

* ``mode="genes"`` — the literal De Jong criterion (useful when k is a
  sizable fraction of d, and for ablation);
* ``mode="string"`` — the sparse-string refinement used by default:
  the population has converged when the *modal solution string*
  accounts for the threshold fraction of the population.  In the dense
  case this implies the gene criterion; in the sparse case it captures
  the intent (the population has collapsed onto one projection and
  stops producing novelty).

Both read the population's ``(p, d)`` gene matrix directly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..._validation import check_choice, check_in_range
from .encoding import check_population

__all__ = ["DeJongConvergence", "gene_convergence_profile", "modal_share"]

#: The convergence criteria :class:`DeJongConvergence` offers.
_MODES = ("string", "genes")


def gene_convergence_profile(population) -> list[float]:
    """Per-gene fraction of the population sharing the modal allele.

    Useful for instrumenting convergence behaviour in benchmarks.
    """
    genes = check_population(population)
    return [
        int(np.unique(column, return_counts=True)[1].max()) / len(genes)
        for column in genes.T
    ]


def modal_share(population) -> float:
    """Fraction of the population held by its most frequent string."""
    genes = np.ascontiguousarray(check_population(population))
    # Each row as one bytes object, counted in a hash table: at GA
    # population sizes cheaper than sorting the rows with np.unique.
    rows = genes.view(np.dtype((np.void, genes.itemsize * genes.shape[1])))
    return max(Counter(rows.ravel().tolist()).values()) / len(genes)


class DeJongConvergence:
    """Convergence predicate for the GA population.

    Parameters
    ----------
    threshold:
        Agreement fraction required (0.95 in De Jong's thesis and the
        paper).
    mode:
        ``"string"`` (default) — modal solution covers *threshold* of
        the population; ``"genes"`` — De Jong's literal per-gene
        criterion (degenerate for k ≪ d, see module docstring).
    """

    def __init__(self, threshold: float = 0.95, mode: str = "string"):
        self.threshold = check_in_range(
            threshold, "convergence threshold", low=0.5, high=1.0
        )
        self.mode = check_choice(mode, _MODES, "convergence mode")

    def has_converged(self, population) -> bool:
        """True when the ``(p, d)`` population meets the criterion."""
        if self.mode == "genes":
            return min(gene_convergence_profile(population)) >= self.threshold
        return modal_share(population) >= self.threshold

    def n_converged_genes(self, population) -> int:
        """How many gene positions currently meet the threshold."""
        return sum(f >= self.threshold for f in gene_convergence_profile(population))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeJongConvergence(threshold={self.threshold}, mode={self.mode!r})"
