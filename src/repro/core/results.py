"""Result containers: scored projections and full detection results.

The searchers return :class:`ScoredProjection` records (a cube plus its
count and sparsity coefficient).  The detector facade aggregates them —
together with the §2.3 postprocessing that maps cubes back to the data
points covering them — into a :class:`DetectionResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import ValidationError
from ..sparsity.statistics import significance_of_coefficient
from .subspace import Subspace

__all__ = ["ScoredProjection", "DetectionResult", "CubeTable", "score_cells"]


@dataclass(frozen=True, slots=True)
class ScoredProjection:
    """A subspace cube together with its evaluation.

    Attributes
    ----------
    subspace:
        The cube (fixed dimensions + grid ranges).
    count:
        ``n(D)`` — points inside the cube.
    coefficient:
        The sparsity coefficient ``S(D)`` (Equation 1).
    """

    subspace: Subspace
    count: int
    coefficient: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValidationError(f"count must be >= 0, got {self.count}")

    @property
    def dimensionality(self) -> int:
        """k — number of fixed dimensions of the cube."""
        return self.subspace.dimensionality

    @property
    def is_empty(self) -> bool:
        """True if the cube covers no points (useless for outliers)."""
        return self.count == 0

    @property
    def significance(self) -> float:
        """Confidence (0..1) that the cube is abnormally sparse."""
        return significance_of_coefficient(self.coefficient)

    def describe(self, feature_names: Sequence[str] | None = None) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.subspace.describe(feature_names)}  "
            f"[n={self.count}, S={self.coefficient:.3f}, "
            f"significance={self.significance:.4f}]"
        )


#: Rows scored per array pass: bounds the ``(rows, m, kmax)`` temporary
#: a large request builds, whatever its length.
_SCORE_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class CubeTable:
    """A mined set as arrays: what :func:`score_cells` reads.

    Row ``i`` describes projection ``i``.  A cube with fewer than
    ``kmax`` fixed dimensions repeats its own last ``(dim, range)`` pair
    to fill its row (a repeated condition changes nothing under AND); a
    k = 0 cube covers every row and is marked in ``free``.  The arrays
    are made C-contiguous once, when the table is built, in the dtypes
    the C library reads (:func:`repro.grid.backends.score_rows`).

    Attributes
    ----------
    dims, ranges:
        ``(m, kmax)`` int64 fixed dimensions and their 0-based grid
        ranges.
    coefficients:
        ``(m,)`` float64 sparsity coefficients.
    free:
        ``(m,)`` True for k = 0 cubes.
    n_columns:
        Columns a request needs: one past the largest fixed dimension.
    """

    dims: np.ndarray
    ranges: np.ndarray
    coefficients: np.ndarray
    free: np.ndarray
    n_columns: int = field(init=False)

    def __post_init__(self) -> None:
        arrays = {
            "dims": np.ascontiguousarray(self.dims, dtype=np.int64),
            "ranges": np.ascontiguousarray(self.ranges, dtype=np.int64),
            "coefficients": np.ascontiguousarray(self.coefficients, dtype=np.float64),
            "free": np.ascontiguousarray(self.free, dtype=bool),
        }
        for name, value in arrays.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n_columns", int(self._top().max(initial=-1)) + 1)

    def _top(self) -> np.ndarray:
        """Each cube's largest fixed dimension, -1 for k = 0 cubes."""
        return np.where(self.free, -1, self.dims.max(axis=1, initial=-1))

    @classmethod
    def from_projections(cls, projections: Sequence[ScoredProjection]) -> "CubeTable":
        """Tabulate *projections* (in order) for scoring."""
        kmax = max((p.dimensionality for p in projections), default=0)
        dims = np.zeros((len(projections), kmax), dtype=np.int64)
        ranges = np.zeros((len(projections), kmax), dtype=np.int64)
        for i, projection in enumerate(projections):
            k = projection.dimensionality
            if k:
                dims[i, :k] = projection.subspace.dims
                dims[i, k:] = projection.subspace.dims[-1]
                ranges[i, :k] = projection.subspace.ranges
                ranges[i, k:] = projection.subspace.ranges[-1]
        return cls(
            dims,
            ranges,
            np.array([p.coefficient for p in projections], dtype=np.float64),
            np.array([p.dimensionality == 0 for p in projections], dtype=bool),
        )

    def check_columns(self, n_columns: int) -> None:
        """Refuse requests with fewer than :attr:`n_columns` columns.

        The :class:`ValidationError` names the first cube, in table
        order, that fixes a dimension the request lacks — the error
        :meth:`~repro.core.subspace.Subspace.covers` raises.
        """
        if self.n_columns > n_columns:
            top = self._top()
            raise ValidationError(
                f"subspace uses dimension {top[top >= n_columns][0]} but "
                f"cells has only {n_columns} columns"
            )


def score_cells(codes, table: CubeTable) -> np.ndarray:
    """Deviation score per row of grid *codes* against a mined set.

    A row scores the most negative coefficient among the cubes of
    *table* (:meth:`CubeTable.from_projections`) that cover it, or NaN
    when none does (the point looks normal); on a tie the first such
    cube in table order wins, so a ``-0.0``/``0.0`` tie keeps the sign
    of the first.  More negative = more abnormal, matching
    :meth:`DetectionResult.point_score`.  The numpy reference of
    :func:`repro.grid.backends.score_rows`, which serves requests:
    every cube is tested against a block of rows at once, so a request
    costs one array pass, not one
    :meth:`~repro.core.subspace.Subspace.covers` call per cube.
    Malformed *codes* raise the :class:`ValidationError` ``covers``
    raises.
    """
    codes = np.asarray(codes)
    scores = np.full(len(codes), np.nan)
    if not table.coefficients.size:
        return scores
    if codes.ndim != 2:
        raise ValidationError(f"cells must be 2-dimensional, got ndim={codes.ndim}")
    table.check_columns(codes.shape[1])
    for start in range(0, len(codes), _SCORE_BLOCK_ROWS):
        block = codes[start:start + _SCORE_BLOCK_ROWS]
        covered = (block[:, table.dims] == table.ranges).all(axis=2)
        covered |= table.free
        masked = np.where(covered, table.coefficients, np.nan)
        best = np.fmin.reduce(masked, axis=1)
        # The reduction may keep either zero of a -0.0/0.0 tie; the
        # first covering zero wins.
        tied = np.flatnonzero(best == 0.0)
        if tied.size:
            first = np.argmax(masked[tied] == 0.0, axis=1)
            best[tied] = masked[tied, first]
        scores[start:start + len(block)] = best
    return scores


@dataclass(frozen=True)
class DetectionResult:
    """Everything a detection run produced.

    Attributes
    ----------
    projections:
        The mined abnormal projections, most negative coefficient
        first.
    outlier_indices:
        Ascending indices of the points covered by at least one mined
        projection (§2.3 postprocessing) — the paper's set ``O``.
    n_points, n_dims, n_ranges, dimensionality:
        The run's N, d, φ and k.
    coverage:
        Mapping from outlier point index to the indices (into
        ``projections``) of the cubes covering it.  This is the raw
        material of interpretability (§1.1).
    stats:
        Search metadata (elapsed seconds, evaluations, generations...).
        Runs through :class:`~repro.core.detector.SubspaceOutlierDetector`
        also carry ``stats["counter_stats"]`` (counting throughput) and
        ``stats["backend_health"]`` (fault-tolerance telemetry).
    """

    projections: tuple[ScoredProjection, ...]
    outlier_indices: np.ndarray
    n_points: int
    n_dims: int
    n_ranges: int
    dimensionality: int
    coverage: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    stats: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "projections", tuple(self.projections))
        indices = np.asarray(self.outlier_indices, dtype=np.intp)
        if indices.ndim != 1:
            raise ValidationError("outlier_indices must be 1-dimensional")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_points):
            raise ValidationError("outlier_indices out of range")
        object.__setattr__(self, "outlier_indices", np.sort(indices))

    # ------------------------------------------------------------------
    @property
    def n_outliers(self) -> int:
        """Number of points flagged as outliers."""
        return int(self.outlier_indices.size)

    @property
    def best_coefficient(self) -> float:
        """Most negative sparsity coefficient among mined projections."""
        if not self.projections:
            return float("nan")
        return self.projections[0].coefficient

    @property
    def stopped_reason(self) -> str:
        """Why the underlying search returned (see ``SearchOutcome``).

        One of ``converged | optimal | generation_cap | deadline |
        evaluation_cap | cancelled`` (``optimal``: the search stopped
        once its best set was certified final); results from older
        payloads without the field report ``"converged"``.
        """
        return str(self.stats.get("stopped_reason", "converged"))

    @property
    def cancelled(self) -> bool:
        """True when a cooperative cancellation stopped the search."""
        return self.stopped_reason == "cancelled"

    @property
    def backend_health(self) -> dict:
        """The run's counting-backend telemetry (empty if not recorded)."""
        return dict(self.stats.get("backend_health") or {})

    @property
    def backend_degraded(self) -> bool:
        """True if the counting backend retried, rebuilt or fell back.

        Counts are bit-identical across backends even under
        degradation, so a True here flags an infrastructure problem —
        never a correctness one.
        """
        health = self.backend_health
        return bool(
            health.get("retries")
            or health.get("timeouts")
            or health.get("rebuilds")
            or health.get("fallbacks")
            or health.get("pool_degraded")
            or health.get("pool_unavailable")
        )

    def mean_coefficient(self, top: int | None = None) -> float:
        """Mean coefficient of the best *top* projections (Table 1 "quality").

        With ``top=None`` averages over all mined projections.
        """
        chosen = self.projections if top is None else self.projections[:top]
        if not chosen:
            return float("nan")
        return float(np.mean([p.coefficient for p in chosen]))

    def outlier_mask(self) -> np.ndarray:
        """Length-N boolean mask of flagged points."""
        mask = np.zeros(self.n_points, dtype=bool)
        mask[self.outlier_indices] = True
        return mask

    def point_score(self, point_index: int) -> float:
        """Deviation score of a point: its best covering coefficient.

        More negative = more abnormal; ``nan`` if the point is covered
        by no mined projection.
        """
        covering = self.coverage.get(int(point_index), ())
        if not covering:
            return float("nan")
        return min(self.projections[i].coefficient for i in covering)

    def ranked_outliers(self) -> list[tuple[int, float]]:
        """Outliers as ``(point_index, score)``, most abnormal first.

        Ties on score break by coverage multiplicity (covered by more
        abnormal cubes first) and then by index for determinism.
        """

        def sort_key(point: int) -> tuple[float, int, int]:
            return (self.point_score(point), -len(self.coverage.get(point, ())), point)

        ordered = sorted((int(i) for i in self.outlier_indices), key=sort_key)
        return [(i, self.point_score(i)) for i in ordered]

    def projections_covering(self, point_index: int) -> list[ScoredProjection]:
        """All mined projections that cover *point_index*."""
        return [self.projections[i] for i in self.coverage.get(int(point_index), ())]

    def __iter__(self) -> Iterator[ScoredProjection]:
        return iter(self.projections)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DetectionResult(projections={len(self.projections)}, "
            f"outliers={self.n_outliers}, k={self.dimensionality}, "
            f"phi={self.n_ranges})"
        )
