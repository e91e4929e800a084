"""Genetic encoding of projection solutions (§2.2, "coding").

A solution is a string of ``d`` genes; gene ``i`` is either a grid range
for dimension ``i`` (an *allele* in ``1..φ``, stored 0-based here) or
the don't-care ``*`` (:data:`WILDCARD_GENE`).  A solution is
**feasible** for a run mining k-dimensional projections exactly when it
fixes k genes — e.g. ``*3*9`` is a feasible solution for k = 2 in
4-dimensional data.

The GA holds its p strings as one ``(p, d)`` integer gene matrix, a
string per row, which every operator takes and returns.
:class:`Solution` is one string as a hashable object, for the edges:
results, the paper-style rendering, the local searchers.

Infeasible strings can exist transiently (the two-point crossover
baseline creates them); they are representable on purpose so the
population dynamics the paper describes — "such solutions are discarded
in subsequent iterations, since they are assigned very low fitness
values" — can be reproduced literally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..._validation import check_positive_int, check_rng
from ...core.subspace import Subspace, WILDCARD
from ...exceptions import ValidationError

__all__ = ["WILDCARD_GENE", "Solution", "check_population", "random_solution"]

#: Gene value encoding the paper's ``*`` don't-care.
WILDCARD_GENE = -1


@dataclass(frozen=True, slots=True)
class Solution:
    """An immutable, hashable GA solution string.

    Parameters
    ----------
    genes:
        Sequence of length d; each entry is :data:`WILDCARD_GENE` or a
        0-based grid range.  Stored as a tuple of ints.
    """

    genes: tuple[int, ...]

    def __post_init__(self) -> None:
        genes = tuple(int(g) for g in self.genes)
        if not genes:
            raise ValidationError("a solution must have at least one gene")
        if any(g < WILDCARD_GENE for g in genes):
            raise ValidationError(f"genes must be >= {WILDCARD_GENE}, got {genes}")
        object.__setattr__(self, "genes", genes)

    # ------------------------------------------------------------------
    @property
    def n_dims(self) -> int:
        """Total number of genes d."""
        return len(self.genes)

    @property
    def dimensionality(self) -> int:
        """Number of fixed genes — the projection dimensionality."""
        return sum(1 for g in self.genes if g != WILDCARD_GENE)

    def is_feasible(self, dimensionality: int) -> bool:
        """True when the string encodes exactly a k-dimensional cube."""
        return self.dimensionality == dimensionality

    # ------------------------------------------------------------------
    def to_subspace(self) -> Subspace:
        """The cube this string encodes."""
        return Subspace.from_pairs(
            (i, g) for i, g in enumerate(self.genes) if g != WILDCARD_GENE
        )

    @classmethod
    def from_subspace(cls, subspace: Subspace, n_dims: int) -> "Solution":
        """Embed a cube into a string of *n_dims* genes."""
        if subspace.dims and subspace.dims[-1] >= n_dims:
            raise ValidationError(
                f"subspace uses dimension {subspace.dims[-1]} but n_dims={n_dims}"
            )
        genes = [WILDCARD_GENE] * n_dims
        for dim, rng in subspace:
            genes[dim] = rng
        return cls(genes)

    # ------------------------------------------------------------------
    def to_string(self) -> str:
        """Paper-style rendering, e.g. ``*3*9`` (1-based ranges)."""
        parts = [WILDCARD if g == WILDCARD_GENE else str(g + 1) for g in self.genes]
        if all(len(p) == 1 for p in parts):
            return "".join(parts)
        return ",".join(parts)

    @classmethod
    def from_string(cls, text: str, n_dims: int | None = None) -> "Solution":
        """Parse a paper-style string (compact or comma-delimited)."""
        text = text.strip()
        if not text:
            raise ValidationError("cannot parse an empty solution string")
        parts = text.split(",") if "," in text else list(text)
        genes = []
        for part in parts:
            part = part.strip()
            if part == WILDCARD:
                genes.append(WILDCARD_GENE)
            else:
                value = int(part)
                if value < 1:
                    raise ValidationError(f"ranges are 1-based, got {value}")
                genes.append(value - 1)
        if n_dims is not None and len(genes) != n_dims:
            raise ValidationError(
                f"string encodes {len(genes)} genes, expected {n_dims}"
            )
        return cls(genes)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.genes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Solution({self.to_string()!r})"


def random_solution(
    n_dims: int,
    dimensionality: int,
    n_ranges: int,
    random_state=None,
) -> Solution:
    """A uniformly random feasible solution: k random dims, random ranges."""
    genes = seed_population(n_dims, dimensionality, n_ranges, 1, random_state)
    return Solution(genes[0])


def seed_population(
    n_dims: int,
    dimensionality: int,
    n_ranges: int,
    population_size: int,
    random_state=None,
) -> np.ndarray:
    """The paper's "Initial Seed Population of p strings" as a gene matrix.

    Row *i* is what the *i*-th of p successive :func:`random_solution`
    calls on the same generator returns.
    """
    n_dims = check_positive_int(n_dims, "n_dims")
    dimensionality = check_positive_int(dimensionality, "dimensionality")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    if dimensionality > n_dims:
        raise ValidationError(
            f"dimensionality ({dimensionality}) cannot exceed n_dims ({n_dims})"
        )
    population_size = check_positive_int(population_size, "population_size")
    rng = check_rng(random_state)
    genes = np.full((population_size, n_dims), WILDCARD_GENE, dtype=np.int64)
    for row in genes:
        dims = rng.choice(n_dims, size=dimensionality, replace=False)
        row[dims] = rng.integers(0, n_ranges, size=dimensionality)
    return genes


def check_population(
    population, n_dims: int | None = None, n_ranges: int | None = None
) -> np.ndarray:
    """*population* as a non-empty ``(p, n_dims)`` int64 gene matrix.

    Genes must lie in ``-1..n_ranges-1``; anything else raises ``ValidationError``.
    """
    try:
        genes = np.asarray(population)
    except ValueError:
        raise ValidationError("population rows differ in length") from None
    high = np.inf if n_ranges is None else n_ranges
    if (
        genes.ndim != 2
        or genes.size == 0
        or genes.dtype.kind not in "iu"
        or (n_dims is not None and genes.shape[1] != n_dims)
        or genes.min() < WILDCARD_GENE
        or genes.max() >= high
    ):
        raise ValidationError(
            f"a population must be a non-empty (p, {n_dims or 'd'}) integer "
            f"matrix of genes in [{WILDCARD_GENE}, {high}), got shape "
            f"{genes.shape} and dtype {genes.dtype}"
        )
    return genes.astype(np.int64, copy=False)
