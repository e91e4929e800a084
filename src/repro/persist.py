"""Persistence: JSON round-trips for results and fitted models.

Two levels of persistence:

* **results** — :func:`result_to_dict` / :func:`result_from_dict`
  serialize a :class:`~repro.core.results.DetectionResult` (and the
  subspaces/projections inside it) to plain JSON-compatible data, e.g.
  for the CLI's ``--output json``;
* **models** — :func:`save_model` captures everything needed to score
  *and keep updating* new data later, and :func:`load_model` restores
  it as a serving-mode :class:`~repro.model.GridModel` whose
  ``score``/``predict`` are identical to the live detector's.

Model snapshots are **schema v2**: a versioned manifest carrying the
grid boundaries and projections (the v1 payload) plus the incremental
state — reservoir sketch, post-fit occupancy, lifecycle counters and
the model version.  v1 snapshots load transparently (migration just
leaves the incremental state empty); missing or unknown versions raise
a typed :class:`~repro.exceptions.PersistError` naming the file and the
version found.  All writes are atomic (:mod:`repro._atomic`).
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Mapping

import numpy as np

from ._atomic import atomic_write_json
from .core.results import DetectionResult, ScoredProjection
from .core.subspace import Subspace
from .engine.events import EventSink
from .exceptions import (
    DiscretizationError,
    NotFittedError,
    PersistError,
    ValidationError,
)
from .grid.health import DEFAULT_DRIFT_THRESHOLD
from .model import GridModel

__all__ = [
    "subspace_to_dict",
    "subspace_from_dict",
    "projection_to_dict",
    "projection_from_dict",
    "result_to_dict",
    "result_from_dict",
    "model_payload",
    "save_model",
    "load_model",
]

#: Result payloads are still the original schema; only model
#: *snapshots* moved to v2.
_FORMAT_VERSION = 1

#: Schema of model snapshots written by :func:`save_model`: the v1
#: grid+projections payload plus the incremental model state.
MODEL_FORMAT_VERSION = 2


def _check_format_version(payload: Mapping, what: str) -> None:
    """Refuse payloads written by a newer library version."""
    version = payload.get("format_version", 1)
    if not isinstance(version, int) or version > _FORMAT_VERSION:
        raise ValidationError(
            f"{what} was written with format version {version!r}; this "
            f"library reads up to version {_FORMAT_VERSION} — upgrade repro"
        )


def subspace_to_dict(subspace: Subspace) -> dict:
    """JSON-compatible representation of a cube."""
    return {"dims": list(subspace.dims), "ranges": list(subspace.ranges)}


def subspace_from_dict(payload: Mapping) -> Subspace:
    """Inverse of :func:`subspace_to_dict`."""
    try:
        return Subspace(tuple(payload["dims"]), tuple(payload["ranges"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed subspace payload: {exc}") from None


def projection_to_dict(projection: ScoredProjection) -> dict:
    """JSON-compatible representation of a scored projection."""
    return {
        "subspace": subspace_to_dict(projection.subspace),
        "count": projection.count,
        "coefficient": projection.coefficient,
    }


def projection_from_dict(payload: Mapping) -> ScoredProjection:
    """Inverse of :func:`projection_to_dict`."""
    try:
        return ScoredProjection(
            subspace=subspace_from_dict(payload["subspace"]),
            count=int(payload["count"]),
            coefficient=float(payload["coefficient"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed projection payload: {exc}") from None


def result_to_dict(result: DetectionResult) -> dict:
    """JSON-compatible representation of a full detection result."""
    return {
        "format_version": _FORMAT_VERSION,
        "projections": [projection_to_dict(p) for p in result.projections],
        "outlier_indices": result.outlier_indices.tolist(),
        "n_points": result.n_points,
        "n_dims": result.n_dims,
        "n_ranges": result.n_ranges,
        "dimensionality": result.dimensionality,
        "coverage": {str(k): list(v) for k, v in result.coverage.items()},
        "stats": {k: v for k, v in result.stats.items()},
    }


def result_from_dict(payload: Mapping) -> DetectionResult:
    """Inverse of :func:`result_to_dict`."""
    _check_format_version(payload, "result payload")
    try:
        return DetectionResult(
            projections=tuple(
                projection_from_dict(p) for p in payload["projections"]
            ),
            outlier_indices=np.asarray(payload["outlier_indices"], dtype=np.intp),
            n_points=int(payload["n_points"]),
            n_dims=int(payload["n_dims"]),
            n_ranges=int(payload["n_ranges"]),
            dimensionality=int(payload["dimensionality"]),
            coverage={
                int(k): tuple(v) for k, v in payload.get("coverage", {}).items()
            },
            stats=dict(payload.get("stats", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed result payload: {exc}") from None


_COUNTER_KEYS = ("updates", "rows_appended", "merges", "rebins", "drift_events")


def model_payload(model: GridModel) -> dict:
    """The schema-v2 snapshot of a :class:`~repro.model.GridModel`.

    A strict superset of the v1 shape (``n_ranges`` / ``boundaries`` /
    ``feature_names`` / ``projections``), so v1-era readers of those
    keys keep working.
    """
    sketch = model.persistable_sketch()
    stats = model.stats_dict()
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "grid_model",
        "n_ranges": model.n_ranges,
        "boundaries": [cuts.tolist() for cuts in model.boundaries],
        "feature_names": (
            list(model.feature_names) if model.feature_names else None
        ),
        "projections": [projection_to_dict(p) for p in model.projections],
        "n_points": model.n_points,
        "model_version": model.version,
        "rebin_policy": model.rebin_policy,
        "drift_threshold": model.drift_threshold,
        "counters": {key: stats[key] for key in _COUNTER_KEYS},
        "occupancy": model.occupancy.tolist(),
        "sketch": None if sketch is None else sketch.state_dict(),
    }


def save_model(model, path) -> Path:
    """Persist a fitted detector or a :class:`~repro.model.GridModel`.

    Accepts either a :class:`~repro.core.detector.SubspaceOutlierDetector`
    whose :meth:`detect` has run, or a ``GridModel`` directly.  Writes a
    schema-v2 snapshot; returns the written path.
    """
    if not isinstance(model, GridModel):
        detector = model
        if getattr(detector, "result_", None) is None or detector.discretizer_ is None:
            raise NotFittedError("call detect() before save_model()")
        model = getattr(detector, "model_", None)
        if model is None:
            model = GridModel.from_snapshot(
                boundaries=detector.discretizer_.boundaries,
                n_ranges=detector.cells_.n_ranges,
                projections=detector.result_.projections,
                feature_names=detector.cells_.feature_names,
                n_points=detector.cells_.n_points,
            )
    # Atomic replace: a crash mid-save never leaves a truncated model
    # file behind (and never clobbers a previously saved good one).
    return atomic_write_json(Path(path), model_payload(model))


def load_model(path, *, event_sink: EventSink | None = None) -> GridModel:
    """Load a model snapshot as a serving-mode ``GridModel``.

    Reads schema v2 (full incremental state) and v1 (grid + projections
    only; the incremental state starts empty).  A missing or unreadable
    ``format_version`` raises :class:`~repro.exceptions.PersistError`
    naming the file and the version found — never a silent misread.
    *event_sink* receives the loaded model's lifecycle events.
    """
    path = Path(path)
    if not path.exists():
        raise PersistError(f"model file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PersistError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(payload, Mapping):
        raise PersistError(
            f"malformed model payload in {path}: expected an object, got "
            f"{type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version is None:
        raise PersistError(
            f"malformed model payload in {path}: missing format_version "
            f"(found: none; this library reads versions 1..{MODEL_FORMAT_VERSION})"
        )
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or not 1 <= version <= MODEL_FORMAT_VERSION
    ):
        raise PersistError(
            f"model payload in {path} has unsupported format version "
            f"{version!r}; this library reads versions "
            f"1..{MODEL_FORMAT_VERSION} — upgrade repro"
        )
    try:
        return _model_from_payload(payload, event_sink)
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError, DiscretizationError) as exc:
        raise PersistError(
            f"malformed model payload in {path}: {exc}"
        ) from None


def _model_from_payload(
    payload: Mapping, event_sink: EventSink | None
) -> GridModel:
    """Restore a v1 or v2 snapshot; every v2-only key has a v1 default."""
    names = payload.get("feature_names")
    return GridModel.from_snapshot(
        boundaries=payload["boundaries"],
        n_ranges=int(payload["n_ranges"]),
        projections=tuple(
            projection_from_dict(p) for p in payload["projections"]
        ),
        feature_names=tuple(names) if names else None,
        sketch_state=payload.get("sketch"),
        occupancy=payload.get("occupancy"),
        n_points=int(payload.get("n_points", 0)),
        version=int(payload.get("model_version", 0)),
        counters=payload.get("counters"),
        drift_threshold=float(
            payload.get("drift_threshold", DEFAULT_DRIFT_THRESHOLD)
        ),
        rebin_policy=str(payload.get("rebin_policy", "manual")),
        event_sink=event_sink,
    )
