"""Grid discretizers: map real attributes to φ grid ranges each.

The paper (§1.3) discretizes every attribute into φ **equi-depth**
ranges so each range holds a fraction ``f = 1/φ`` of the records —
equi-depth rather than equi-width because "different localities of the
data have different densities".  :class:`EquiDepthDiscretizer` is that
construction; :class:`EquiWidthDiscretizer` is provided for ablations.

Both are fit/transform estimators: ``fit`` learns per-attribute cut
points from training data (ignoring NaN), ``transform`` maps any
conforming matrix to a :class:`~repro.grid.cells.CellAssignment`.
Missing values map to :data:`~repro.grid.cells.MISSING_CELL` and are
excluded from boundary estimation, which is what lets the method mine
projections from incompletely observed records (§1.2).

Incremental fitting
-------------------
The equi-depth construction is algebraically mergeable: cut points are
order statistics, so a :class:`StreamingReservoir` sketch of the rows
determines them.  :meth:`GridDiscretizer.partial_fit` absorbs chunks
into the sketch, :meth:`GridDiscretizer.merge` folds another
discretizer's sketch in, and :meth:`GridDiscretizer.rebin` lazily
recomputes cut points from the sketch.  While the total row count fits
the sketch capacity the reservoir holds *every* row in arrival order,
so any interleaving of ``partial_fit``/``merge`` followed by ``rebin``
is **bit-identical** to a one-shot :meth:`GridDiscretizer.fit` on the
concatenated data (cuts are read off each column's sorted copy, so
equal multisets give equal cuts).  Beyond capacity the sketch degrades
to a seeded uniform sample and the equality becomes statistical — the
documented sketch tolerance (see ``docs/streaming.md``).

Every fit hands the cut hook one contiguous scratch copy of each
column's finite values; equi-depth sorts it once and reads
``np.quantile``'s linear-method cuts off it.  The copies come from
:func:`~repro.grid.backends.column_copies`, a few columns per pass.
Every transform maps values to codes through
:func:`~repro.grid.backends.range_codes`: a value's range is the count
``#{cuts < v}`` against the ``(d, φ−1)`` cut matrix, stacked once when
the cut points are installed.  Both run in the verified C library when
it builds and on the numpy references otherwise (the measured stages
are in ``docs/algorithms.md``).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import Any

import numpy as np

from .._validation import check_matrix, check_positive_int
from ..exceptions import DiscretizationError, NotFittedError, ValidationError
from .backends import column_copies, range_codes
from .cells import CellAssignment
from .kernels import _MAX_RANGES

__all__ = [
    "GridDiscretizer",
    "EquiDepthDiscretizer",
    "EquiWidthDiscretizer",
    "StreamingReservoir",
    "DEFAULT_SAMPLE_SIZE",
]

#: Default reservoir size for the streamed fit: large enough that the
#: sampled quantiles sit within a fraction of a percent of the exact
#: ones (the equi-depth construction only needs cut points that split
#: the data into roughly equal ranges), small enough to always fit in
#: memory.
DEFAULT_SAMPLE_SIZE = 1 << 17

def _check_cuts(cuts: np.ndarray, j: int) -> np.ndarray:
    """Return column *j*'s cut points once they are finite and sorted."""
    if not np.isfinite(cuts).all():
        raise DiscretizationError(f"cut points for column {j} are not finite: {cuts}")
    if np.any(np.diff(cuts) < 0):
        raise DiscretizationError(f"cut points for column {j} are not sorted: {cuts}")
    return cuts


class StreamingReservoir:
    """Deterministic row reservoir over a stream of matrix chunks.

    Vectorized Algorithm R with a seeded generator: row *t* (0-based,
    counted across all chunks) replaces a uniformly drawn slot once the
    reservoir is full.  Exactly one variate is drawn per row beyond the
    fill — never per chunk — so the sampled rows are **invariant to how
    the stream is chunked**: any split of the same row sequence yields
    the same reservoir (property-tested).  While ``n_seen <= capacity``
    the reservoir holds every row in arrival order, making the streamed
    fit *exactly* equal to the in-memory fit on small data.

    Storage holds the rows seen so far and grows on demand (doubling,
    capped at ``capacity``), so a large stated capacity costs nothing
    until that many rows arrive.
    """

    def __init__(self, capacity: int, random_state: int = 0):
        self.capacity = check_positive_int(capacity, "capacity")
        self._rng = np.random.default_rng(random_state)
        self._rows: np.ndarray | None = None
        self.n_seen = 0

    def update(self, chunk: np.ndarray) -> "StreamingReservoir":
        """Feed one ``(m, d)`` chunk of rows through the reservoir.

        Zero-row chunks are skipped — streaming readers routinely
        produce them (an empty final read, a filtered-out block) and
        they carry no information.
        """
        if np.asarray(chunk).ndim == 2 and np.asarray(chunk).shape[0] == 0:
            return self
        self._absorb(check_matrix(chunk, "chunk"))
        return self

    def _absorb(self, block: np.ndarray) -> None:
        """:meth:`update` with a non-empty matrix ``check_matrix`` has passed."""
        if self._rows is None:
            self._rows = np.empty((0, block.shape[1]))
        elif block.shape[1] != self._rows.shape[1]:
            raise DiscretizationError(
                f"chunk has {block.shape[1]} columns, previous chunks had "
                f"{self._rows.shape[1]}"
            )
        m = block.shape[0]
        fill = min(max(self.capacity - self.n_seen, 0), m)
        if fill:
            self._reserve(self.n_seen + fill)
            self._rows[self.n_seen : self.n_seen + fill] = block[:fill]
        if m > fill:
            tail = block[fill:]
            # Row t (global index) survives into slot j ~ U{0..t} iff
            # j < capacity; later rows overwrite earlier winners of the
            # same slot, exactly as the scalar algorithm does.
            t = self.n_seen + fill + np.arange(tail.shape[0], dtype=np.int64)
            slots = (self._rng.random(tail.shape[0]) * (t + 1)).astype(np.int64)
            survivors = np.flatnonzero(slots < self.capacity)
            # The last survivor of each slot wins: unique over the
            # reversed survivors finds it, then one write places them.
            won, last = np.unique(slots[survivors[::-1]], return_index=True)
            self._rows[won] = tail[survivors[::-1][last]]
        self.n_seen += m

    def _reserve(self, n_rows: int) -> None:
        """Grow storage to hold at least *n_rows* (≤ capacity) rows."""
        allocated = self._rows.shape[0]
        if n_rows <= allocated:
            return
        grown = np.empty(
            (min(self.capacity, max(n_rows, 2 * allocated)), self._rows.shape[1])
        )
        held = min(self.n_seen, self.capacity)
        grown[:held] = self._rows[:held]
        self._rows = grown

    @property
    def rows(self) -> np.ndarray:
        """The sampled rows (a copy; ``min(n_seen, capacity)`` of them)."""
        if self._rows is None or self.n_seen == 0:
            raise DiscretizationError("reservoir has seen no rows")
        return self._rows[: min(self.n_seen, self.capacity)].copy()

    # -- persistence -----------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Snapshot of the full reservoir state.

        ``rows`` is a float64 ``(held, n_cols)`` array (a copy; shape
        ``(0, 0)`` before the first row); every other value is
        JSON-serializable.  Restoring via :meth:`from_state_dict` and
        continuing the stream is bit-identical to never having paused:
        the sampled rows, the global row counter, and the generator
        state all round-trip.
        """
        held = min(self.n_seen, self.capacity)
        rows = np.empty((0, 0)) if self._rows is None else self._rows[:held].copy()
        return {
            "capacity": int(self.capacity),
            "n_seen": int(self.n_seen),
            "n_cols": None if self._rows is None else int(self._rows.shape[1]),
            "rows": rows,
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "StreamingReservoir":
        """Rebuild a reservoir from :meth:`state_dict` output.

        ``rows`` may be an array or nested lists (a JSON snapshot).  The
        state must hold exactly ``min(n_seen, capacity)`` rows of
        ``n_cols`` values; anything else is a :class:`DiscretizationError`.
        """
        try:
            reservoir = cls(int(state["capacity"]))
            reservoir._rng.bit_generator.state = state["rng_state"]
            reservoir.n_seen = int(state["n_seen"])
            n_cols = state.get("n_cols")
            rows = np.asarray(state.get("rows", []), dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DiscretizationError(f"malformed reservoir state: {exc}") from exc
        if n_cols is None and reservoir.n_seen == 0:
            return reservoir
        if isinstance(n_cols, bool) or not isinstance(n_cols, (int, np.integer)) or n_cols < 1:
            raise DiscretizationError(f"reservoir n_cols must be >= 1, got {n_cols!r}")
        held = min(reservoir.n_seen, reservoir.capacity)
        rows = rows.reshape(0, n_cols) if rows.size == 0 else rows
        if rows.shape != (held, n_cols):
            raise DiscretizationError(
                f"reservoir state holds rows of shape {rows.shape}; n_seen="
                f"{reservoir.n_seen} and capacity {reservoir.capacity} need ({held}, {n_cols})"
            )
        reservoir._rows = np.array(rows, dtype=np.float64, order="C")
        return reservoir


class GridDiscretizer(abc.ABC):
    """Base class for per-attribute grid discretizers.

    Parameters
    ----------
    n_ranges:
        The grid resolution φ — number of ranges per attribute, at most
        32,768 (range codes are ``int16``).  The paper's guidance
        (§2.4): pick φ large enough that a range is a "reasonable
        notion of locality" but small enough that a
        k-dimensional cube still expects multiple points.
    sketch_size:
        When given, :meth:`fit` additionally seeds a
        :class:`StreamingReservoir` of this capacity with the training
        rows, making the discretizer incrementally updatable via
        :meth:`partial_fit` / :meth:`merge` / :meth:`rebin`.  ``None``
        (the default) keeps the classic zero-overhead batch behaviour;
        ``partial_fit`` on a *fresh* discretizer still auto-enables a
        default-sized sketch.
    sketch_random_state:
        Seed for the sketch reservoir.
    """

    def __init__(
        self,
        n_ranges: int = 10,
        *,
        sketch_size: int | None = None,
        sketch_random_state: int = 0,
    ):
        self.n_ranges = check_positive_int(n_ranges, "n_ranges")
        if self.n_ranges > _MAX_RANGES:
            raise ValidationError(
                f"n_ranges must be <= {_MAX_RANGES} (range codes are int16), "
                f"got {self.n_ranges}"
            )
        self._boundaries: tuple[np.ndarray, ...] | None = None
        self._cut_matrix: np.ndarray | None = None
        self._feature_names: tuple[str, ...] | None = None
        self._sketch_size = (
            None if sketch_size is None else check_positive_int(sketch_size, "sketch_size")
        )
        self._sketch_seed = sketch_random_state
        self._sketch: StreamingReservoir | None = None
        self._sketch_stale = False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _compute_cuts(self, finite_column: np.ndarray) -> np.ndarray:
        """Return the φ−1 interior cut points for one attribute.

        *finite_column* is a non-empty, contiguous scratch copy of the
        attribute's finite (non-missing) values; the hook may reorder it
        in place, but must not keep it: the memory is reused for the
        next column once the hook returns.
        """

    # ------------------------------------------------------------------
    @classmethod
    def from_cut_points(
        cls, boundaries: Sequence, feature_names: Sequence[str] | None = None
    ) -> "GridDiscretizer":
        """Rebuild a fitted discretizer from stored cut points.

        *boundaries* is one array of φ−1 sorted interior cut points per
        attribute (what :attr:`boundaries` returns); this is how a
        persisted model restores its grid without the training data.
        """
        arrays = [np.asarray(cuts, dtype=np.float64) for cuts in boundaries]
        if not arrays or len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise DiscretizationError(
                "boundaries must be one equal-length 1-D cut-point array per attribute"
            )
        instance = cls(n_ranges=arrays[0].size + 1)
        instance._install_cuts([_check_cuts(a, j) for j, a in enumerate(arrays)])
        instance._install_names(len(arrays), feature_names)
        return instance

    # -- fitting helpers -----------------------------------------------
    def _column_cuts(self, finite: np.ndarray, j: int) -> np.ndarray:
        """Validated (sorted, finite) cut points for one column's finite values."""
        if finite.size == 0:
            return np.zeros(self.n_ranges - 1)
        cuts = np.asarray(self._compute_cuts(finite), dtype=np.float64)
        if cuts.shape != (self.n_ranges - 1,):
            raise DiscretizationError(
                f"discretizer produced {cuts.shape} cuts for column {j}, "
                f"expected ({self.n_ranges - 1},)"
            )
        return _check_cuts(cuts, j)

    def _install_names(self, n_cols: int, feature_names: Sequence[str] | None) -> None:
        names = None if feature_names is None else tuple(str(n) for n in feature_names)
        if names is not None and len(names) != n_cols:
            raise DiscretizationError(
                f"feature_names has {len(names)} entries for {n_cols} columns"
            )
        self._feature_names = names

    def _install_cuts(self, boundaries: list[np.ndarray]) -> None:
        """Install validated per-column cut points as one ``(d, φ−1)`` matrix.

        :attr:`boundaries` returns the matrix's rows, so the
        per-attribute arrays and the stacked matrix every transform
        reads are one memory.
        """
        self._cut_matrix = np.array(boundaries, dtype=np.float64)
        self._boundaries = tuple(self._cut_matrix)

    def _fit_cuts(self, array: np.ndarray) -> None:
        """Compute and install boundaries from *array*, nothing else."""
        boundaries = []
        for j, values in enumerate(column_copies(array)):
            missing = np.isnan(values)
            finite = values[~missing] if missing.any() else values
            boundaries.append(self._column_cuts(finite, j))
        self._install_cuts(boundaries)

    def _assignment(self, array: np.ndarray) -> CellAssignment:
        """Codes of *array* under the installed cut points."""
        assert self._boundaries is not None
        return CellAssignment(
            codes=range_codes(array, self._cut_matrix),
            n_ranges=self.n_ranges,
            feature_names=self._feature_names,
            boundaries=self._boundaries,
        )

    def _seed_sketch(self, array: np.ndarray) -> None:
        """Reset the sketch (when enabled) to exactly the fitted rows."""
        if self._sketch_size is not None:
            self.enable_sketch(array)

    def fit(self, data, feature_names: Sequence[str] | None = None) -> "GridDiscretizer":
        """Learn per-attribute cut points from *data*.

        NaN entries are treated as missing and excluded.  A column with
        no observed values at all is allowed (every transformed code
        will be missing); a constant column collapses to a single
        occupied range, which the counter handles gracefully.
        """
        array = check_matrix(data, "data")
        self._fit_cuts(array)
        self._install_names(array.shape[1], feature_names)
        self._seed_sketch(array)
        return self

    # -- incremental fitting -------------------------------------------
    @property
    def sketch(self) -> StreamingReservoir | None:
        """The row sketch backing incremental fits (``None`` when disabled)."""
        return self._sketch

    @property
    def sketch_stale(self) -> bool:
        """True when the sketch has absorbed rows the cut points haven't."""
        return self._sketch_stale

    def enable_sketch(
        self, data=None, *, capacity: int | None = None, random_state: int | None = None
    ) -> "GridDiscretizer":
        """Attach a fresh row sketch, optionally pre-seeded with *data*.

        Use this to make an already-fitted discretizer incremental:
        pass the rows the current cut points were computed from so the
        sketch stays consistent with the grid.  Replaces any existing
        sketch.
        """
        if capacity is not None:
            self._sketch_size = check_positive_int(capacity, "capacity")
        elif self._sketch_size is None:
            self._sketch_size = DEFAULT_SAMPLE_SIZE
        if random_state is not None:
            self._sketch_seed = random_state
        self._sketch = StreamingReservoir(
            self._sketch_size, random_state=self._sketch_seed
        )
        if data is not None:
            self._sketch.update(data)
        self._sketch_stale = False
        return self

    def restore_sketch(self, state: dict[str, Any]) -> "GridDiscretizer":
        """Re-attach a sketch persisted via ``sketch.state_dict()``."""
        self._sketch = StreamingReservoir.from_state_dict(state)
        self._sketch_size = self._sketch.capacity
        self._sketch_stale = False
        return self

    def _require_sketch(self, action: str) -> StreamingReservoir:
        """The sketch, auto-enabled on a fresh discretizer."""
        if self._sketch is None:
            if self.is_fitted and self._sketch_size is None:
                raise DiscretizationError(
                    "discretizer was fitted without a sketch; call "
                    "enable_sketch(original_rows) or construct with "
                    f"sketch_size= before {action}"
                )
            self.enable_sketch()
        assert self._sketch is not None
        return self._sketch

    def partial_fit(
        self, chunk, feature_names: Sequence[str] | None = None
    ) -> "GridDiscretizer":
        """Absorb one chunk of rows into the sketch (cut points unchanged).

        The cut points do **not** move until :meth:`rebin` — transforms
        between updates stay on the current grid, which is what keeps
        appended cube counts comparable.  On a fresh discretizer this
        auto-enables a default-sized sketch; on one fitted *without* a
        sketch it raises (call :meth:`enable_sketch` with the original
        rows first, or construct with ``sketch_size=``).
        """
        self._require_sketch("partial_fit").update(chunk)
        if feature_names is not None:
            self._install_names(np.asarray(chunk).shape[1], feature_names)
        self._sketch_stale = True
        return self

    def merge(self, other: "GridDiscretizer") -> "GridDiscretizer":
        """Fold another discretizer's sketched rows into this sketch.

        Both sides must share the concrete class and φ.  The merge is
        **exact** — ``rebin()`` afterwards equals a one-shot fit on the
        concatenated rows — whenever both sketches are under capacity
        and their combined row count still fits this sketch.  Beyond
        that it is a deterministic approximation: the other side's
        sampled rows stream through this reservoir (the documented
        sketch tolerance, see ``docs/streaming.md``).
        """
        if type(other) is not type(self):
            raise DiscretizationError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if other.n_ranges != self.n_ranges:
            raise DiscretizationError(
                f"cannot merge discretizers with n_ranges {other.n_ranges} "
                f"and {self.n_ranges}"
            )
        if other._sketch is None:
            if other.is_fitted:
                raise DiscretizationError(
                    "cannot merge a discretizer fitted without a sketch"
                )
            return self
        sketch = self._require_sketch("merge")
        if other._sketch.n_seen > 0:
            sketch.update(other._sketch.rows)
            self._sketch_stale = True
        if self._feature_names is None and other._feature_names is not None:
            self._feature_names = other._feature_names
        return self

    def rebin(self, *, force: bool = False) -> "GridDiscretizer":
        """Recompute cut points from the sketch (lazy: no-op when fresh).

        Returns ``self``.  Raises when no sketched rows exist to rebin
        from.  ``force=True`` recomputes even when the sketch is not
        stale.
        """
        if self._sketch is None or self._sketch.n_seen == 0:
            raise DiscretizationError(
                "nothing to rebin from: the sketch holds no rows "
                "(feed partial_fit/merge first)"
            )
        if self.is_fitted and not self._sketch_stale and not force:
            return self
        self._fit_cuts(self._sketch.rows)
        self._sketch_stale = False
        return self

    def fit_from_chunks(
        self,
        chunks,
        feature_names: Sequence[str] | None = None,
        *,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        random_state: int = 0,
    ) -> "GridDiscretizer":
        """Learn cut points from streamed row chunks, never the full array.

        The chunks flow through a :class:`StreamingReservoir` of
        *sample_size* rows (seeded by *random_state*; deterministic and
        invariant to chunk boundaries) and the cut points are computed
        from the sample.  When the stream has at most *sample_size*
        rows the result is **exactly** the in-memory fit; beyond that
        the cut points are the sample's quantiles — statistically
        indistinguishable for the equi-depth construction at the
        default size, and crucially never materializing more than the
        reservoir.  The reservoir is retained as the discretizer's
        sketch, so the streamed fit is immediately continuable via
        :meth:`partial_fit` / :meth:`merge`.

        This is the out-of-core fit path: pair it with
        :meth:`transform` per chunk and
        :meth:`~repro.grid.sharded.ShardedMaskStore.build_from_chunks`
        to take a dataset from disk to a countable store in bounded
        memory (see ``docs/scaling.md``).
        """
        self._sketch_size = check_positive_int(sample_size, "sample_size")
        self._sketch_seed = random_state
        self._sketch = StreamingReservoir(sample_size, random_state=random_state)
        for chunk in chunks:
            self._sketch.update(chunk)
        if self._sketch.n_seen == 0:
            raise DiscretizationError("reservoir has seen no rows")
        rows = self._sketch.rows
        self._fit_cuts(rows)
        self._install_names(rows.shape[1], feature_names)
        self._sketch_stale = False
        return self

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self._boundaries is not None

    @property
    def boundaries(self) -> tuple[np.ndarray, ...]:
        """Per-attribute interior cut points (after fitting)."""
        if self._boundaries is None:
            raise NotFittedError("discretizer must be fitted before reading boundaries")
        return self._boundaries

    def transform(self, data) -> CellAssignment:
        """Map *data* to grid-range codes using the fitted cut points.

        Values outside the fitted range clamp to the first/last range;
        NaN maps to :data:`~repro.grid.cells.MISSING_CELL`.
        """
        if self._boundaries is None:
            raise NotFittedError("discretizer must be fitted before transform")
        return self._transform_checked(check_matrix(data, "data"))

    def _request_cuts(self, array: np.ndarray) -> np.ndarray:
        """The ``(d, φ−1)`` cut matrix that codes *array*, a matrix
        ``check_matrix`` has passed; raises what :meth:`transform`
        raises for it."""
        if self._boundaries is None:
            raise NotFittedError("discretizer must be fitted before transform")
        if array.shape[1] != len(self._boundaries):
            raise DiscretizationError(
                f"data has {array.shape[1]} columns but discretizer was "
                f"fitted on {len(self._boundaries)}"
            )
        return self._cut_matrix

    def _transform_checked(self, array: np.ndarray) -> CellAssignment:
        """:meth:`transform` of a matrix ``check_matrix`` has passed."""
        self._request_cuts(array)
        return self._assignment(array)

    def _absorb_checked(self, array: np.ndarray) -> None:
        """:meth:`partial_fit` of a matrix ``check_matrix`` has passed."""
        self._require_sketch("partial_fit")._absorb(array)
        self._sketch_stale = True

    def fit_transform(self, data, feature_names: Sequence[str] | None = None) -> CellAssignment:
        """Fit on *data* and return its codes.

        Bit-identical to ``fit(data).transform(data)`` but never calls
        :meth:`transform`: the input is validated once (regression-tested).
        """
        return self._fit_transform_checked(check_matrix(data, "data"), feature_names)

    def _fit_transform_checked(
        self, array: np.ndarray, feature_names: Sequence[str] | None = None
    ) -> CellAssignment:
        """:meth:`fit_transform` of a matrix ``check_matrix`` has passed."""
        self._fit_cuts(array)
        self._install_names(array.shape[1], feature_names)
        self._seed_sketch(array)
        return self._assignment(array)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_ranges={self.n_ranges})"


class EquiDepthDiscretizer(GridDiscretizer):
    """Equi-depth (quantile) grid: each range holds ~N/φ records.

    This is the paper's construction.  Cut points sit at the
    ``i/φ`` quantiles of the observed values.  Heavily tied attributes
    can produce duplicate cut points, leaving some ranges empty — the
    sparsity coefficient still behaves sensibly because it compares
    against the idealized expectation ``N·f^k`` exactly as the paper
    defines it.
    """

    def _compute_cuts(self, finite_column: np.ndarray) -> np.ndarray:
        # np.quantile's linear method, read off the column sorted once:
        # positions (n-1)·q, past-the-end ones clamped to the last value
        # (index -1, as numpy does), and numpy's two-sided lerp.
        finite_column.sort()
        last = finite_column.size - 1
        position = last * (np.arange(1, self.n_ranges) / self.n_ranges)
        below = np.where(position >= last, -1.0, np.floor(position))
        above = np.where(below < 0, -1.0, below + 1)
        gamma = position - below
        lo, hi = finite_column[below.astype(np.intp)], finite_column[above.astype(np.intp)]
        cuts = lo + (hi - lo) * gamma
        np.subtract(hi, (hi - lo) * (1 - gamma), out=cuts, where=gamma >= 0.5)
        return cuts


class EquiWidthDiscretizer(GridDiscretizer):
    """Equi-width grid: ranges of equal length over the observed span.

    Provided as an ablation of the paper's equi-depth choice; with
    skewed data most records pile into a few ranges and the sparsity
    coefficient loses its locality interpretation.
    """

    def _compute_cuts(self, finite_column: np.ndarray) -> np.ndarray:
        lo, hi = float(finite_column.min()), float(finite_column.max())
        if lo == hi:
            return np.full(self.n_ranges - 1, lo)
        return np.linspace(lo, hi, self.n_ranges + 1)[1:-1]
