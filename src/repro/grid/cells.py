"""Cell assignments: each data point mapped to a grid range per attribute.

The discretizers in :mod:`repro.grid.discretizer` reduce a real-valued
``(N, d)`` matrix to an integer matrix of the same shape whose entry
``(i, j)`` is the 0-based grid range of point ``i`` on attribute ``j``,
or :data:`MISSING_CELL` when the value was missing (NaN).  This compact
form is all the searchers ever touch — the raw floats are only needed
again when *explaining* an outlier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..exceptions import ValidationError

__all__ = ["CellAssignment", "MISSING_CELL", "check_code_block"]

#: Sentinel cell code for a missing attribute value.  Negative so it can
#: never collide with a real 0-based range index.
MISSING_CELL = -1


def check_code_block(
    codes, n_ranges: int, n_dims: int | None = None, *, what: str = "codes"
) -> np.ndarray:
    """*codes* as a contiguous ``int16`` ``(m, d)`` block of grid codes.

    The contract of every code block that enters a counter or a store:
    a 2-D integer array (``d == n_dims`` when *n_dims* is given) whose
    entries lie in ``[MISSING_CELL, n_ranges)``.  The range is checked
    on the caller's dtype, *before* the ``int16`` cast, so no value can
    wrap into range.  Raises :class:`~repro.exceptions.ValidationError`;
    *what* names the block in the message.
    """
    block = np.asarray(codes)
    if block.ndim != 2:
        raise ValidationError(f"{what} must be 2-D, got shape {block.shape}")
    if n_dims is not None and block.shape[1] != n_dims:
        raise ValidationError(
            f"{what} have {block.shape[1]} columns, expected {n_dims}"
        )
    if not np.issubdtype(block.dtype, np.integer):
        raise ValidationError(f"{what} must be integer-typed, got {block.dtype}")
    if block.size:
        lo, hi = int(block.min()), int(block.max())
        if lo < MISSING_CELL or hi >= n_ranges:
            raise ValidationError(
                f"{what} must be in [0, {n_ranges}) or MISSING_CELL for a "
                f"grid of φ={n_ranges} ranges, found range [{lo}, {hi}]"
            )
    return np.ascontiguousarray(block, dtype=np.int16)


@dataclass(frozen=True)
class CellAssignment:
    """Grid-range codes for a dataset, plus the grid metadata.

    Attributes
    ----------
    codes:
        ``(N, d)`` ``int16`` array of 0-based range indices;
        :data:`MISSING_CELL` marks missing values.
    n_ranges:
        The grid resolution φ (ranges per attribute).
    feature_names:
        Optional attribute names used by explanation rendering.
    boundaries:
        Per-attribute arrays of the φ−1 interior cut points used to
        assign codes (useful to describe a range in data units).
    """

    codes: np.ndarray
    n_ranges: int
    feature_names: tuple[str, ...] | None = None
    boundaries: tuple[np.ndarray, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 2:
            raise ValidationError(f"codes must be 2-dimensional, got ndim={codes.ndim}")
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValidationError(f"codes must be integer-typed, got {codes.dtype}")
        phi = int(self.n_ranges)
        if phi < 1:
            raise ValidationError(f"n_ranges must be >= 1, got {phi}")
        # MISSING_CELL is the only negative code, so two reductions decide
        # validity; the masks are built only to name the offending value.
        if codes.size and (codes.min() < MISSING_CELL or codes.max() >= phi):
            valid = (codes == MISSING_CELL) | ((codes >= 0) & (codes < phi))
            bad = codes[~valid][0]
            raise ValidationError(
                f"cell codes must be in [0, {phi}) or MISSING_CELL, found {bad}"
            )
        if self.feature_names is not None:
            names = tuple(str(n) for n in self.feature_names)
            if len(names) != codes.shape[1]:
                raise ValidationError(
                    f"feature_names has {len(names)} entries for {codes.shape[1]} columns"
                )
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "n_ranges", phi)

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of data points N."""
        return self.codes.shape[0]

    @property
    def n_dims(self) -> int:
        """Total dimensionality d of the data."""
        return self.codes.shape[1]

    @property
    def missing_fraction(self) -> float:
        """Fraction of all cells that are missing."""
        return float(np.mean(self.codes == MISSING_CELL))

    def column(self, dim: int) -> np.ndarray:
        """The code column for attribute *dim* (a view, do not mutate)."""
        if not 0 <= dim < self.n_dims:
            raise ValidationError(f"dim must be in [0, {self.n_dims}), got {dim}")
        return self.codes[:, dim]

    def range_counts(self, dim: int) -> np.ndarray:
        """Occupancy of each of the φ ranges on attribute *dim*.

        For an equi-depth grid with no ties or missing values every
        entry is N/φ up to rounding; skewed occupancy signals heavy
        ties on that attribute.
        """
        col = self.column(dim)
        return np.bincount(col[col >= 0], minlength=self.n_ranges)

    def describe_range(self, dim: int, range_index: int) -> str:
        """Describe grid range *range_index* of *dim* in data units."""
        if not 0 <= range_index < self.n_ranges:
            raise ValidationError(
                f"range_index must be in [0, {self.n_ranges}), got {range_index}"
            )
        name = (
            self.feature_names[dim]
            if self.feature_names is not None
            else f"dim{dim}"
        )
        if self.boundaries is None:
            return f"{name} in range {range_index + 1}/{self.n_ranges}"
        cuts = self.boundaries[dim]
        lo = "-inf" if range_index == 0 else f"{cuts[range_index - 1]:.4g}"
        hi = "+inf" if range_index == self.n_ranges - 1 else f"{cuts[range_index]:.4g}"
        return f"{name} in ({lo}, {hi}]"

    def subset(self, rows: Sequence[int] | np.ndarray) -> "CellAssignment":
        """A new assignment restricted to the given row indices."""
        rows = np.asarray(rows)
        return CellAssignment(
            codes=self.codes[rows],
            n_ranges=self.n_ranges,
            feature_names=self.feature_names,
            boundaries=self.boundaries,
        )
