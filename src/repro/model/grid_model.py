"""The incremental, mergeable model unit: :class:`GridModel`.

Before this layer existed, the pipeline was strictly batch: the
detector fitted a discretizer, built a counter, searched, and every
artifact died with the call.  :class:`GridModel` packages the three
pieces of fitted state — the discretizer (grid cut points + row
sketch), the cell assignment, and the cube counter (packed mask
stacks) — into one versioned unit that can keep living:

* :meth:`update` absorbs new rows *without* refitting: they are coded
  under the frozen grid, packed onto the counter's mask stacks
  (:meth:`~repro.grid.counter.CubeCounter.append_rows`), and fed to the
  discretizer's reservoir sketch;
* :meth:`merge` folds another model fitted on a disjoint row shard into
  this one (distributed fits);
* :meth:`rebin` lazily recuts the grid from everything absorbed so far
  and rebuilds the masks — bit-identical to a one-shot batch fit on the
  concatenated rows (the layer's defining invariant, locked by
  ``tests/test_model_incremental.py``);
* :meth:`score` / :meth:`predict` serve new points against the mined
  projections, also available on a model restored from disk without the
  training data (*serving mode*).

Every mutation bumps :attr:`version` and emits a registered event
(``model_updated`` / ``rebin_triggered`` / ``grid_drift_detected`` /
``score_request``), so operators can watch a long-lived model drift and
rebin through the ordinary event bus.  Occupancy of absorbed rows is
tracked per (dimension, range) and checked against the equi-depth
``f = 1/φ`` design point (:func:`~repro.grid.health.check_grid_drift`);
with ``rebin_policy="auto"`` a drifted model recuts itself.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from .._validation import check_matrix
from ..core.results import CubeTable, ScoredProjection
from ..engine.events import EventSink, emit_event
from ..exceptions import NotFittedError, ValidationError
from ..grid.backends import bind_scorer
from ..grid.cells import CellAssignment
from ..grid.counter import CubeCounter
from ..grid.discretizer import EquiDepthDiscretizer, GridDiscretizer, StreamingReservoir
from ..grid.health import DEFAULT_DRIFT_THRESHOLD, GridDriftReport, check_grid_drift

__all__ = ["GridModel", "CounterFactory", "REBIN_POLICIES", "RequestScorer"]

#: Builds the cube counter for a cell assignment — the seam the
#: detector uses to route its in-memory/sharded/spill counter ladder
#: through the model layer.
CounterFactory = Callable[[CellAssignment], CubeCounter]

#: ``manual`` — :meth:`GridModel.rebin` only when called; ``auto`` —
#: also whenever an absorbed batch pushes occupancy drift past the
#: threshold (serving-mode models never auto-rebin: no masks to rebuild).
REBIN_POLICIES = ("manual", "auto")

_COUNTER_KEYS = ("updates", "rows_appended", "merges", "rebins", "drift_events")


def _checked_projections(
    value: Sequence[ScoredProjection],
) -> tuple[ScoredProjection, ...]:
    projections = tuple(value)
    for p in projections:
        if not isinstance(p, ScoredProjection):
            raise ValidationError(
                f"projections must be ScoredProjection, got {type(p).__name__}"
            )
    return projections


class RequestScorer:
    """The request path of both scorers, bound to one grid and mined set.

    :meth:`GridModel.score` and
    :meth:`~repro.core.detector.SubspaceOutlierDetector.score` call it
    with a matrix ``check_matrix`` has passed.  The request is checked
    against the grid (what ``transform`` raises) and the table (what
    :func:`~repro.core.results.score_cells` raises), then scored by the
    scorer :func:`~repro.grid.backends.bind_scorer` bound to the grid's
    cut matrix and *table* — in one C call on the native tier, without
    a cell assignment.  The binding is made when the scorer is built
    and again only if the discretizer has since installed another cut
    matrix (a refit under a live detector).
    """

    def __init__(self, discretizer: GridDiscretizer, table: CubeTable) -> None:
        cuts = discretizer._cut_matrix
        if cuts is None:
            raise NotFittedError("discretizer must be fitted before transform")
        self._discretizer = discretizer
        self.table = table
        self._cuts = cuts
        self._score = bind_scorer(cuts, table)

    def __call__(self, array: np.ndarray) -> np.ndarray:
        cuts = self._discretizer._request_cuts(array)
        self.table.check_columns(array.shape[1])
        if cuts is not self._cuts:
            self._cuts, self._score = cuts, bind_scorer(cuts, self.table)
        return self._score(array)


class GridModel:
    """Discretizer + cell assignment + cube counter as one updatable unit.

    Build one with :meth:`fit` (full state, in-memory rows retained) or
    :meth:`from_snapshot` (serving mode: grid + projections only, as
    restored by :func:`repro.persist.load_model`).  The low-level
    constructor wires pre-built parts together and validates they agree.

    Parameters
    ----------
    discretizer:
        A *fitted* grid discretizer.
    counter:
        The cube counter over the model's rows (``None`` in serving
        mode).
    data:
        The raw rows the counter was built from, retained so
        :meth:`rebin` can recut exactly (``None`` in serving mode).
    projections:
        Mined abnormal projections (what :meth:`score` serves).  ``None``
        (the default) means nothing has been mined yet, so :meth:`score`
        refuses; any sequence — even an empty one — is a mined set.
    counter_factory:
        How :meth:`rebin` rebuilds the counter after recutting.
    event_sink:
        Where model lifecycle events go (``None`` drops them).
    drift_threshold:
        Per-dimension occupancy divergence past which absorbed rows
        count as drifted.
    rebin_policy:
        One of :data:`REBIN_POLICIES`.
    sketch_size:
        Reservoir capacity used when the model lazily enables the
        discretizer's sketch on first update (``None``: the
        discretizer's own default).
    occupancy, n_points, version, counters:
        Restored bookkeeping (snapshot loads); fresh models start at
        zero.
    """

    def __init__(
        self,
        discretizer: GridDiscretizer,
        *,
        counter: CubeCounter | None = None,
        data: Any | None = None,
        projections: Sequence[ScoredProjection] | None = None,
        counter_factory: CounterFactory | None = None,
        event_sink: EventSink | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        rebin_policy: str = "manual",
        sketch_size: int | None = None,
        occupancy: Any | None = None,
        n_points: int | None = None,
        version: int = 0,
        counters: Mapping[str, int] | None = None,
    ) -> None:
        if not discretizer.is_fitted:
            raise ValidationError(
                "GridModel needs a fitted discretizer — use GridModel.fit(data)"
            )
        if rebin_policy not in REBIN_POLICIES:
            raise ValidationError(
                f"rebin_policy must be one of {REBIN_POLICIES}, got {rebin_policy!r}"
            )
        if not 0.0 < float(drift_threshold) <= 1.0:
            raise ValidationError(
                f"drift threshold must be in (0, 1], got {drift_threshold!r}"
            )
        self.discretizer = discretizer
        n_dims = len(discretizer.boundaries)
        if data is not None:
            data = np.ascontiguousarray(data, dtype=np.float64)
            if data.ndim != 2 or data.shape[1] != n_dims:
                raise ValidationError(
                    f"data must be 2-D with {n_dims} columns, got "
                    f"shape {data.shape}"
                )
        if counter is not None:
            if counter.cells.n_ranges != discretizer.n_ranges:
                raise ValidationError(
                    f"counter has n_ranges={counter.cells.n_ranges}, "
                    f"discretizer has {discretizer.n_ranges}"
                )
            if data is not None and counter.n_points != data.shape[0]:
                raise ValidationError(
                    f"counter holds {counter.n_points} points, data has "
                    f"{data.shape[0]} rows"
                )
        self.counter = counter
        self._data: np.ndarray | None = data
        # Blocks absorbed since the rows were last read, joined onto
        # ``_data`` on the next read (``_rows``): an update costs its own
        # rows, not a copy of everything retained.
        self._pending: list[np.ndarray] = []
        self.projections = projections or ()
        self._mined = projections is not None
        self._counter_factory: CounterFactory = (
            counter_factory or self.default_counter_factory()
        )
        self.event_sink = event_sink
        self.drift_threshold = float(drift_threshold)
        self.rebin_policy = rebin_policy
        self._sketch_size = sketch_size
        if occupancy is None:
            occ = np.zeros((n_dims, discretizer.n_ranges), dtype=np.int64)
        else:
            occ = np.asarray(occupancy, dtype=np.int64)
            if occ.shape != (n_dims, discretizer.n_ranges):
                raise ValidationError(
                    f"occupancy must have shape ({n_dims}, "
                    f"{discretizer.n_ranges}), got {occ.shape}"
                )
        self._occupancy = occ
        if n_points is not None:
            self._n_points = int(n_points)
        elif counter is not None:
            self._n_points = int(counter.n_points)
        else:
            self._n_points = 0 if data is None else int(data.shape[0])
        self.version = int(version)
        restored = dict(counters or {})
        self._n_updates = int(restored.get("updates", 0))
        self._rows_appended = int(restored.get("rows_appended", 0))
        self._n_merges = int(restored.get("merges", 0))
        self._n_rebins = int(restored.get("rebins", 0))
        self._n_drift_events = int(restored.get("drift_events", 0))
        self._last_drift: GridDriftReport | None = None

    # -- construction ---------------------------------------------------
    @staticmethod
    def default_counter_factory() -> CounterFactory:
        """In-memory counter builder."""
        return CubeCounter

    @classmethod
    def fit(
        cls,
        data: Any,
        *,
        n_ranges: int = 10,
        feature_names: Sequence[str] | None = None,
        discretizer: GridDiscretizer | None = None,
        packed: bool = False,
        counter_factory: CounterFactory | None = None,
        event_sink: EventSink | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        rebin_policy: str = "manual",
        sketch_size: int | None = None,
    ) -> "GridModel":
        """Fit a fresh model on *data* — the batch entry point.

        Single discretization pass (``fit_transform``), one counter
        build; the rows are retained so later :meth:`rebin` calls are
        exact.  *packed* is a deprecated no-op accepted for one release:
        the counter always stores bit-packed masks.
        """
        del packed  # deprecated no-op: masks are always bit-packed
        return cls._fit_checked(
            check_matrix(data, "data"),
            n_ranges=n_ranges,
            feature_names=feature_names,
            discretizer=discretizer,
            counter_factory=counter_factory,
            event_sink=event_sink,
            drift_threshold=drift_threshold,
            rebin_policy=rebin_policy,
            sketch_size=sketch_size,
        )

    @classmethod
    def _fit_checked(
        cls,
        array: np.ndarray,
        *,
        n_ranges: int = 10,
        feature_names: Sequence[str] | None = None,
        discretizer: GridDiscretizer | None = None,
        counter_factory: CounterFactory | None = None,
        event_sink: EventSink | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        rebin_policy: str = "manual",
        sketch_size: int | None = None,
    ) -> "GridModel":
        """:meth:`fit` of a matrix ``check_matrix`` has passed."""
        disc = discretizer or EquiDepthDiscretizer(n_ranges)
        cells = disc._fit_transform_checked(array, feature_names)
        factory = counter_factory or cls.default_counter_factory()
        counter = factory(cells)
        return cls(
            disc,
            counter=counter,
            data=array,
            counter_factory=factory,
            event_sink=event_sink,
            drift_threshold=drift_threshold,
            rebin_policy=rebin_policy,
            sketch_size=sketch_size,
        )

    @classmethod
    def from_snapshot(
        cls,
        *,
        boundaries: Sequence[Any],
        n_ranges: int,
        projections: Sequence[ScoredProjection] = (),
        feature_names: Sequence[str] | None = None,
        sketch_state: Mapping[str, Any] | None = None,
        occupancy: Any | None = None,
        n_points: int = 0,
        version: int = 0,
        counters: Mapping[str, int] | None = None,
        event_sink: EventSink | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        rebin_policy: str = "manual",
    ) -> "GridModel":
        """Restore a *serving-mode* model from persisted grid state.

        No raw rows, no mask stacks: :meth:`score`, :meth:`predict` and
        sketch/occupancy-only :meth:`update` work; :meth:`rebin` and
        :meth:`merge` need the full state and refuse.
        """
        disc = EquiDepthDiscretizer.from_cut_points(boundaries, feature_names)
        if disc.n_ranges != int(n_ranges):
            raise ValidationError(
                f"boundaries imply n_ranges={disc.n_ranges}, payload says "
                f"{n_ranges}"
            )
        if sketch_state is not None:
            disc.restore_sketch(dict(sketch_state))
        return cls(
            disc,
            projections=projections,
            occupancy=occupancy,
            n_points=n_points,
            version=version,
            counters=counters,
            event_sink=event_sink,
            drift_threshold=drift_threshold,
            rebin_policy=rebin_policy,
        )

    # -- introspection --------------------------------------------------
    @property
    def projections(self) -> tuple[ScoredProjection, ...]:
        """The mined abnormal projections currently served by ``score``."""
        return self._projections

    @projections.setter
    def projections(self, value: Sequence[ScoredProjection]) -> None:
        self._projections = _checked_projections(value)
        self._scorer = RequestScorer(
            self.discretizer, CubeTable.from_projections(self._projections)
        )
        self._mined = True

    @property
    def cells(self) -> CellAssignment | None:
        """The counter's cell assignment (``None`` in serving mode)."""
        return None if self.counter is None else self.counter.cells

    @property
    def boundaries(self) -> tuple[np.ndarray, ...]:
        """Per-attribute grid cut points."""
        return self.discretizer.boundaries

    @property
    def feature_names(self) -> tuple[str, ...] | None:
        """Attribute names, when the model was fitted with any."""
        if self.counter is not None:
            return self.counter.cells.feature_names
        return self.discretizer._feature_names

    @property
    def n_ranges(self) -> int:
        """Grid resolution φ."""
        return self.discretizer.n_ranges

    @property
    def n_dims(self) -> int:
        """Number of attributes the grid covers."""
        return len(self.discretizer.boundaries)

    @property
    def n_points(self) -> int:
        """Rows the model has absorbed (fit + updates + merges)."""
        return self._n_points

    @property
    def raw_data(self) -> np.ndarray | None:
        """The retained rows (``None`` in serving mode)."""
        return self._rows()

    @property
    def is_serving(self) -> bool:
        """True for a model restored without rows and mask stacks."""
        return self.counter is None

    @property
    def can_rebin(self) -> bool:
        """True when the model holds everything a rebin rebuild needs."""
        return self.counter is not None and self._data is not None

    @property
    def occupancy(self) -> np.ndarray:
        """Post-fit ``(d, φ)`` occupancy counts of absorbed rows (copy)."""
        return self._occupancy.copy()

    @property
    def last_drift(self) -> GridDriftReport | None:
        """The most recent drift check (``None`` before any update)."""
        return self._last_drift

    # -- mutation -------------------------------------------------------
    def update(self, points: Any) -> GridDriftReport:
        """Absorb new rows without refitting; returns the drift check.

        The rows are coded under the *current* grid and packed onto the
        counter's mask stacks, counting no cube — counts afterwards are
        bit-identical to a from-scratch build on the concatenated rows.
        The grid itself does not move until :meth:`rebin` (or
        immediately, under ``rebin_policy="auto"`` with drift past the
        threshold).
        """
        array = check_matrix(points, "points")
        assignment = self.discretizer._transform_checked(array)
        self._ensure_sketch()
        self.discretizer._absorb_checked(array)
        if self.counter is not None:
            # The grid coded these rows, and their assignment checked
            # them; the counter takes them without a second scan.
            self.counter._append_codes(assignment.codes)
        if self._data is not None:
            self._pending.append(array.copy())
        self._absorb_occupancy(assignment.codes)
        rows = int(array.shape[0])
        self._n_points += rows
        self._n_updates += 1
        self._rows_appended += rows
        self.version += 1
        emit_event(
            self.event_sink,
            "model_updated",
            action="update",
            rows=rows,
            n_points=self._n_points,
            version=self.version,
        )
        return self._after_absorb()

    def merge(self, other: "GridModel") -> GridDriftReport:
        """Fold *other* (fitted on different rows) into this model.

        *other*'s raw rows are re-coded under **this** model's grid and
        appended; its discretizer sketch is folded into this sketch so a
        later :meth:`rebin` sees the union (exact while the combined
        rows fit the reservoir; a documented deterministic approximation
        beyond — see ``docs/streaming.md``).
        """
        if not isinstance(other, GridModel):
            raise ValidationError(
                f"can only merge another GridModel, got {type(other).__name__}"
            )
        if other.n_ranges != self.n_ranges:
            raise ValidationError(
                f"cannot merge models with n_ranges {other.n_ranges} and "
                f"{self.n_ranges}"
            )
        if self.counter is None or self._data is None:
            raise ValidationError(
                "a serving-mode model (restored without its rows and mask "
                "stacks) cannot absorb a merge; re-fit with GridModel.fit"
            )
        if other._data is None:
            raise ValidationError(
                "the other model was restored without its raw rows; merge "
                "needs them to recode under this model's grid"
            )
        block = other._rows()
        assignment = self.discretizer.transform(block)
        self._ensure_sketch()
        other._ensure_sketch()
        self.discretizer.merge(other.discretizer)
        self.counter.append_rows(assignment)
        self._pending.append(block.copy())
        self._absorb_occupancy(assignment.codes)
        rows = int(block.shape[0])
        self._n_points += rows
        self._n_merges += 1
        self._rows_appended += rows
        self.version += 1
        emit_event(
            self.event_sink,
            "model_updated",
            action="merge",
            rows=rows,
            n_points=self._n_points,
            version=self.version,
        )
        return self._after_absorb()

    def rebin(self, *, force: bool = False, reason: str = "manual") -> bool:
        """Recut the grid over everything absorbed; rebuild the masks.

        Lazy: a model with nothing absorbed since the last (re)fit
        returns ``False`` untouched (``force=True`` recuts anyway).
        The recut runs on the retained rows, so the resulting model is
        bit-identical to a one-shot batch fit on the concatenated data.
        Mined projections reference the old grid and are cleared —
        re-mine with ``SubspaceOutlierDetector.detect_model``.
        """
        if self.counter is None or self._data is None:
            raise ValidationError(
                "this model was restored for serving (no raw rows or mask "
                "stacks) and cannot rebin; re-fit with GridModel.fit or "
                "rebuild it via detect()"
            )
        if not force and not self.discretizer.sketch_stale:
            return False
        cells = self.discretizer.fit_transform(
            self._rows(), feature_names=self.feature_names
        )
        self.counter.close()
        self.counter = self._counter_factory(cells)
        self._occupancy = np.zeros_like(self._occupancy)
        self.projections = ()
        self._mined = False
        self._last_drift = None
        self._n_rebins += 1
        self.version += 1
        emit_event(
            self.event_sink,
            "rebin_triggered",
            reason=reason,
            n_points=self._n_points,
            version=self.version,
        )
        return True

    # -- serving --------------------------------------------------------
    def score(self, points: Any) -> np.ndarray:
        """Deviation score per point: best covering coefficient, else NaN.

        A model whose mined set is empty scores every point NaN; a model
        that has not been mined yet (fresh fit, or after :meth:`rebin`)
        raises :class:`~repro.exceptions.NotFittedError`.
        """
        if not self._mined:
            raise NotFittedError(
                "model has no mined projections — run "
                "SubspaceOutlierDetector.detect_model(model) first (a "
                "rebin clears them)"
            )
        array = check_matrix(points, "points")
        scores = self._scorer(array)
        if self.event_sink is not None:
            emit_event(
                self.event_sink,
                "score_request",
                n_points=int(array.shape[0]),
                n_flagged=int(np.count_nonzero(~np.isnan(scores))),
                version=self.version,
            )
        return scores

    def predict(self, points: Any) -> np.ndarray:
        """Boolean outlier mask for new points."""
        return ~np.isnan(self.score(points))

    # -- bookkeeping ----------------------------------------------------
    def stats_dict(self) -> dict[str, Any]:
        """JSON-friendly lifecycle snapshot (``result.stats["model"]``)."""
        sketch = self.discretizer.sketch
        return {
            "model_version": self.version,
            "n_points": self._n_points,
            "serving": self.counter is None,
            "rebin_policy": self.rebin_policy,
            "drift_threshold": self.drift_threshold,
            "updates": self._n_updates,
            "rows_appended": self._rows_appended,
            "merges": self._n_merges,
            "rebins": self._n_rebins,
            "drift_events": self._n_drift_events,
            "last_drift": (
                None if self._last_drift is None else self._last_drift.as_dict()
            ),
            "sketch": (
                None
                if sketch is None
                else {
                    "capacity": sketch.capacity,
                    "n_seen": sketch.n_seen,
                    "stale": self.discretizer.sketch_stale,
                }
            ),
        }

    def to_dict(self) -> dict[str, Any]:
        """The JSON-compatible snapshot (:func:`repro.persist.model_payload`)."""
        from ..persist import model_payload

        return model_payload(self)

    def persistable_sketch(self) -> StreamingReservoir | None:
        """The sketch to persist: the live one, else one built from rows.

        A freshly fitted model may never have enabled its sketch (zero
        overhead for plain batch detection); at save time we still want
        the snapshot updatable, so the retained rows are streamed
        through a throwaway reservoir without mutating the model.
        """
        sketch = self.discretizer.sketch
        if sketch is not None:
            return sketch
        if self._data is None:
            return None
        return StreamingReservoir(self._default_sketch_capacity()).update(
            self._rows()
        )

    def close(self) -> None:
        """Release the counter's resources (pools, mmaps).  Idempotent."""
        if self.counter is not None:
            self.counter.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "serving" if self.is_serving else "full"
        return (
            f"GridModel(N={self._n_points}, d={self.n_dims}, "
            f"phi={self.n_ranges}, projections={len(self._projections)}, "
            f"version={self.version}, {mode})"
        )

    # -- internals ------------------------------------------------------
    def _default_sketch_capacity(self) -> int:
        from ..grid.discretizer import DEFAULT_SAMPLE_SIZE

        return self._sketch_size or DEFAULT_SAMPLE_SIZE

    def _ensure_sketch(self) -> None:
        """Lazily enable the discretizer sketch before the first absorb.

        Seeded with the retained rows the current grid was fitted on, so
        a later rebin sees the full history — equivalent (chunk-boundary
        invariance of the reservoir) to having sketched at fit time.
        """
        if self.discretizer.sketch is not None:
            return
        if self._data is not None:
            self.discretizer.enable_sketch(
                self._rows(), capacity=self._default_sketch_capacity()
            )
        else:
            self.discretizer.enable_sketch(
                capacity=self._default_sketch_capacity()
            )

    def _rows(self) -> np.ndarray | None:
        """The retained rows as one array, joining pending blocks first."""
        if self._pending:
            self._data = np.concatenate([self._data, *self._pending], axis=0)
            self._pending = []
        return self._data

    def _absorb_occupancy(self, codes: np.ndarray) -> None:
        """Add *codes*' per-(dimension, range) occupancy in one ``bincount``.

        Column *j*'s code *c* counts in slot ``j·(φ+1) + c + 1``, so its
        missing cells fall in slot ``j·(φ+1)``, which is dropped.
        """
        n_dims, phi = self._occupancy.shape
        slots = codes + (1 + np.arange(n_dims) * (phi + 1))
        counts = np.bincount(slots.ravel(), minlength=n_dims * (phi + 1))
        self._occupancy += counts.reshape(n_dims, phi + 1)[:, 1:]

    def _after_absorb(self) -> GridDriftReport:
        report = check_grid_drift(self._occupancy, self.drift_threshold)
        self._last_drift = report
        if report.drifted:
            self._n_drift_events += 1
            emit_event(
                self.event_sink,
                "grid_drift_detected",
                version=self.version,
                **report.as_dict(),
            )
            if self.rebin_policy == "auto" and self.can_rebin:
                self.rebin(reason="drift")
        return report
