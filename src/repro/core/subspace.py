"""Subspace cubes: the unit of search in Aggarwal-Yu outlier detection.

A *subspace* (the paper calls it a k-dimensional cube, or a projection
with grid ranges) is a choice of ``k`` distinct dimensions together with
one grid range per chosen dimension.  The paper encodes these as strings
over the alphabet ``{1..phi, *}`` where ``*`` is a "don't care" — e.g.
``*3*9`` fixes the second dimension to range 3 and the fourth to range 9
in 4-dimensional data.

This module stores ranges **0-based** internally (range ``r`` covers the
``r``-th equi-depth interval produced by the discretizer) while the
string codec speaks the paper's 1-based dialect, so examples from the
paper round-trip verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import ValidationError

__all__ = ["Subspace", "WILDCARD"]

#: The "don't care" marker used by the string codec.
WILDCARD = "*"


@dataclass(frozen=True, slots=True)
class Subspace:
    """An immutable k-dimensional cube: paired dimensions and grid ranges.

    Parameters
    ----------
    dims:
        Strictly ascending tuple of 0-based dimension indices.
    ranges:
        Tuple of 0-based grid-range indices, aligned with ``dims``.

    Notes
    -----
    Instances are hashable and totally determined by ``(dims, ranges)``.
    """

    dims: tuple[int, ...]
    ranges: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        ranges = tuple(int(r) for r in self.ranges)
        if len(dims) != len(ranges):
            raise ValidationError(
                f"dims and ranges must have equal length, got {len(dims)} and {len(ranges)}"
            )
        if any(d < 0 for d in dims):
            raise ValidationError(f"dimension indices must be >= 0, got {dims}")
        if any(r < 0 for r in ranges):
            raise ValidationError(f"range indices must be >= 0, got {ranges}")
        if any(a >= b for a, b in zip(dims, dims[1:], strict=False)):
            raise ValidationError(f"dims must be strictly ascending, got {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ranges", ranges)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Subspace":
        """Build a subspace from unordered ``(dimension, range)`` pairs."""
        items = sorted((int(d), int(r)) for d, r in pairs)
        dims = tuple(d for d, _ in items)
        ranges = tuple(r for _, r in items)
        return cls(dims, ranges)

    @classmethod
    def empty(cls) -> "Subspace":
        """The 0-dimensional subspace that covers every point."""
        return cls((), ())

    @classmethod
    def from_string(cls, text: str) -> "Subspace":
        """Parse a paper-style solution string into a subspace.

        Two dialects are accepted:

        * compact — one character per gene, ranges ``1``–``9``:
          ``Subspace.from_string("*3*9")``
        * delimited — comma-separated genes for ``phi > 9``:
          ``Subspace.from_string("*,12,*,3")``

        Ranges in the text are 1-based (the paper's convention) and are
        converted to the library's 0-based representation.
        """
        text = text.strip()
        if not text:
            raise ValidationError("cannot parse an empty solution string")
        genes = text.split(",") if "," in text else list(text)
        pairs: list[tuple[int, int]] = []
        for position, gene in enumerate(genes):
            gene = gene.strip()
            if gene == WILDCARD:
                continue
            try:
                value = int(gene)
            except ValueError:
                raise ValidationError(
                    f"gene {position} must be '*' or an integer, got {gene!r}"
                ) from None
            if value < 1:
                raise ValidationError(f"gene {position} must be >= 1 (1-based), got {value}")
            pairs.append((position, value - 1))
        return cls.from_pairs(pairs)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def dimensionality(self) -> int:
        """Number of fixed dimensions (the paper's ``k``)."""
        return len(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(zip(self.dims, self.ranges, strict=True))

    def range_for(self, dim: int) -> int | None:
        """Return the 0-based range fixed for *dim*, or None if free."""
        try:
            return self.ranges[self.dims.index(dim)]
        except ValueError:
            return None

    def uses_dimension(self, dim: int) -> bool:
        """True if *dim* is one of the fixed dimensions."""
        return dim in self.dims

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def extended(self, dim: int, range_index: int) -> "Subspace":
        """Return a new subspace with ``(dim, range_index)`` added.

        This is the paper's ``⊕`` concatenation restricted to a single
        1-dimensional projection.  Extending with a dimension already in
        the subspace is an error — the paper notes it "only makes sense
        to concatenate with grid ranges from dimensions not included".
        """
        if self.uses_dimension(dim):
            raise ValidationError(f"dimension {dim} is already fixed in {self!r}")
        return Subspace.from_pairs(list(zip(self.dims, self.ranges, strict=True)) + [(dim, range_index)])

    def restricted_to(self, dims: Sequence[int]) -> "Subspace":
        """Return the sub-cube using only the fixed dims listed in *dims*."""
        keep = set(int(d) for d in dims)
        return Subspace.from_pairs((d, r) for d, r in self if d in keep)

    def is_subspace_of(self, other: "Subspace") -> bool:
        """True if every (dim, range) pair of self also appears in other."""
        pairs = set(zip(other.dims, other.ranges, strict=True))
        return all(pair in pairs for pair in zip(self.dims, self.ranges, strict=True))

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def covers(self, cells: np.ndarray) -> np.ndarray:
        """Boolean mask of rows whose grid cells match this cube.

        Parameters
        ----------
        cells:
            ``(N, d)`` integer array of 0-based grid-range codes as
            produced by :class:`repro.grid.cells.CellAssignment`;
            negative entries mark missing values and never match.

        Returns
        -------
        numpy.ndarray
            ``(N,)`` boolean array, True where the point lies in the
            cube on **all** fixed dimensions.
        """
        cells = np.asarray(cells)
        if cells.ndim != 2:
            raise ValidationError(f"cells must be 2-dimensional, got ndim={cells.ndim}")
        if self.dims and self.dims[-1] >= cells.shape[1]:
            raise ValidationError(
                f"subspace uses dimension {self.dims[-1]} but cells has "
                f"only {cells.shape[1]} columns"
            )
        mask = np.ones(len(cells), dtype=bool)
        for dim, rng in self:
            mask &= cells[:, dim] == rng
        return mask

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_string(self, n_dims: int, *, compact: bool | None = None) -> str:
        """Render as a paper-style solution string of length *n_dims*.

        Ranges are printed 1-based.  With ``compact=None`` the compact
        single-character dialect is chosen automatically when every
        range fits in one digit; pass ``compact=False`` to force the
        comma-delimited dialect.
        """
        if self.dims and self.dims[-1] >= n_dims:
            raise ValidationError(
                f"subspace uses dimension {self.dims[-1]} but n_dims={n_dims}"
            )
        genes = [WILDCARD] * n_dims
        for dim, rng in self:
            genes[dim] = str(rng + 1)
        if compact is None:
            compact = all(len(g) == 1 for g in genes)
        if compact:
            if any(len(g) > 1 for g in genes):
                raise ValidationError(
                    "compact rendering requires every range <= 9; use compact=False"
                )
            return "".join(genes)
        return ",".join(genes)

    def describe(self, feature_names: Sequence[str] | None = None) -> str:
        """Human-readable description, e.g. ``crime∈range 8 & tax∈range 1``."""
        parts = []
        for dim, rng in self:
            name = feature_names[dim] if feature_names is not None else f"dim{dim}"
            parts.append(f"{name}∈range {rng + 1}")
        return " & ".join(parts) if parts else "(empty subspace)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{d}:{r}" for d, r in self)
        return f"Subspace({body})"
