"""Persistence: JSON round-trips for results, binary snapshots for models.

Two levels of persistence:

* **results** — :func:`result_to_dict` / :func:`result_from_dict`
  serialize a :class:`~repro.core.results.DetectionResult` (and the
  subspaces/projections inside it) to plain JSON-compatible data, e.g.
  for the CLI's ``--output json``;
* **models** — :func:`save_model` captures everything needed to score
  *and keep updating* new data later, and :func:`load_model` restores
  it as a serving-mode :class:`~repro.model.GridModel` whose
  ``score``/``predict`` are identical to the live detector's.

:func:`save_model` writes **schema v3**: one uncompressed zip container
in the ``.npz`` layout, whatever the path's extension, with three
members:

* ``manifest.json`` — every snapshot key except the bulk arrays:
  version, grid cuts, φ, feature names, projections, counters, model
  version, rebin policy, drift threshold and the reservoir's
  ``capacity``/``n_seen``/``n_cols``/RNG state;
* ``sketch_rows.npy`` — the reservoir rows, little-endian ``<f8``,
  ``held × n_cols``;
* ``occupancy.npy`` — the post-fit occupancy, little-endian ``<i8``,
  ``d × φ``.

Every member carries a fixed timestamp, so the same model always saves
to the same bytes (a :class:`~repro.model.ModelHandle` never reloads a
byte-identical re-save).  :func:`load_model` sniffs the zip magic: a
container is read without unpickling anything (``allow_pickle=False``,
and only the two expected dtypes), anything else goes down the JSON
path that reads schema v2 (the same keys with the arrays inline, as
:func:`model_payload` still returns them) and v1 (grid + projections;
the incremental state starts empty).  Missing or unknown versions and
any file that does not parse raise a typed
:class:`~repro.exceptions.PersistError` naming the file.  All writes
are atomic (:mod:`repro._atomic`).
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from pathlib import Path
from collections.abc import Mapping

import numpy as np

from ._atomic import atomic_write_bytes
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
#: *snapshots* moved on.
_FORMAT_VERSION = 1

#: Schema of model snapshots written by :func:`save_model`: the v2 keys
#: in a zip container, with the bulk arrays as raw ``.npy`` members.
MODEL_FORMAT_VERSION = 3

#: Schema of the JSON-compatible :func:`model_payload` dict: the v3 keys
#: with the bulk arrays inline as lists.  JSON files read as v1 or v2.
_JSON_MODEL_FORMAT_VERSION = 2

_ZIP_MAGIC = b"PK\x03\x04"
_MANIFEST = "manifest.json"
_SKETCH_ROWS = "sketch_rows.npy"
_OCCUPANCY = "occupancy.npy"

#: Every member's timestamp (the zip epoch): a wall-clock stamp would
#: make two saves of one model differ.
_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)

#: What a damaged or hostile container can raise while it is parsed
#: (``ValueError`` includes the reader's own ``PersistError``s, which
#: are re-raised naming the file).
_CONTAINER_ERRORS = (
    zipfile.BadZipFile,
    KeyError,
    ValueError,
    EOFError,
    NotImplementedError,
)


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


def _snapshot(model: GridModel) -> tuple[dict, np.ndarray, np.ndarray]:
    """The v3 manifest, the occupancy and the sketch rows of *model*.

    The one place the snapshot's key list lives: :func:`model_payload`
    inlines the two arrays into it, :func:`save_model` stores them as
    container members.  The rows are ``(0, 0)`` when there is no sketch.
    """
    sketch = model.persistable_sketch()
    state = None if sketch is None else sketch.state_dict()
    rows = np.empty((0, 0)) if state is None else state.pop("rows")
    stats = model.stats_dict()
    manifest = {
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
        "sketch": state,
    }
    return manifest, model.occupancy, rows


def model_payload(model: GridModel) -> dict:
    """The JSON-compatible schema-v2 snapshot of a :class:`~repro.model.GridModel`.

    The v3 manifest with the occupancy and the sketch rows inline as
    lists; :func:`load_model` reads it back from a JSON file.  A strict
    superset of the v1 shape (``n_ranges`` / ``boundaries`` /
    ``feature_names`` / ``projections``), so v1-era readers of those
    keys keep working.
    """
    manifest, occupancy, rows = _snapshot(model)
    sketch = manifest["sketch"]
    return {
        **manifest,
        "format_version": _JSON_MODEL_FORMAT_VERSION,
        "occupancy": occupancy.tolist(),
        "sketch": None if sketch is None else {**sketch, "rows": rows.tolist()},
    }


def _npy_bytes(array: np.ndarray, dtype: str) -> bytes:
    """*array* as ``.npy`` bytes of the little-endian *dtype*."""
    buffer = io.BytesIO()
    np.lib.format.write_array(
        buffer, np.ascontiguousarray(array, dtype=dtype), allow_pickle=False
    )
    return buffer.getvalue()


def _container_bytes(members: Mapping[str, bytes]) -> bytes:
    """An uncompressed zip of *members*, identical for identical input."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, data in members.items():
            info = zipfile.ZipInfo(name, date_time=_MEMBER_DATE_TIME)
            archive.writestr(info, data)
    return buffer.getvalue()


def save_model(model, path) -> Path:
    """Persist a fitted detector or a :class:`~repro.model.GridModel`.

    Accepts either a :class:`~repro.core.detector.SubspaceOutlierDetector`
    whose :meth:`detect` has run, or a ``GridModel`` directly.  Writes a
    schema-v3 container to *path* as given (no extension is added) and
    returns it.
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
    manifest, occupancy, rows = _snapshot(model)
    data = _container_bytes({
        _MANIFEST: json.dumps(manifest, indent=2).encode("utf-8"),
        _SKETCH_ROWS: _npy_bytes(rows, "<f8"),
        _OCCUPANCY: _npy_bytes(occupancy, "<i8"),
    })
    # Atomic replace: a crash mid-save never leaves a truncated model
    # file behind (and never clobbers a previously saved good one).
    return atomic_write_bytes(Path(path), data)


def load_model(path, *, event_sink: EventSink | None = None) -> GridModel:
    """Load a model snapshot as a serving-mode ``GridModel``.

    Reads a schema-v3 container and JSON snapshots of schema v2 (full
    incremental state) and v1 (grid + projections only; the incremental
    state starts empty).  A file that cannot be read or parsed, and a
    missing or unknown ``format_version``, raise
    :class:`~repro.exceptions.PersistError` naming the file — never a
    silent misread.  *event_sink* receives the loaded model's lifecycle
    events.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise PersistError(f"model file not found: {path}") from None
    except OSError as exc:
        raise PersistError(f"cannot read model file {path}: {exc}") from None
    if data.startswith(_ZIP_MAGIC):
        payload = _read_container(data, path)
        _check_model_version(payload, path, (MODEL_FORMAT_VERSION,), "container")
    else:
        payload = _read_json(data, path)
        _check_model_version(payload, path, (1, _JSON_MODEL_FORMAT_VERSION), "JSON")
    try:
        return _model_from_payload(payload, event_sink)
    except PersistError:
        raise
    except (
        KeyError, TypeError, ValueError, DiscretizationError, ValidationError
    ) as exc:
        raise PersistError(
            f"malformed model payload in {path}: {exc}"
        ) from None


def _read_json(data: bytes, path: Path) -> Mapping:
    """The payload object of a v1/v2 JSON snapshot."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise PersistError(
            f"model file {path} is neither a snapshot container nor UTF-8 "
            f"JSON: {exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise PersistError(
            f"model file {path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, Mapping):
        raise PersistError(
            f"malformed model payload in {path}: expected an object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _read_container(data: bytes, path: Path) -> dict:
    """The v3 payload of a container: its manifest with the arrays put back.

    Every member must be stored uncompressed and unencrypted, and each
    array must be a version 1.0 ``.npy`` (what :func:`save_model` writes)
    of its one expected dtype whose header accounts for exactly the
    member's bytes: no pickle is ever
    read, and a hostile header cannot ask for a huge allocation.
    """
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            for info in archive.infolist():
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise PersistError(
                        f"member {info.filename!r} is compressed or encrypted"
                    )
            manifest = json.loads(archive.read(_MANIFEST).decode("utf-8"))
            rows = _read_npy(archive.read(_SKETCH_ROWS), _SKETCH_ROWS, "<f8")
            occupancy = _read_npy(archive.read(_OCCUPANCY), _OCCUPANCY, "<i8")
    except _CONTAINER_ERRORS as exc:
        raise PersistError(
            f"model file {path} is not a readable snapshot container: {exc}"
        ) from None
    if not isinstance(manifest, Mapping):
        raise PersistError(
            f"malformed model payload in {path}: the manifest is a "
            f"{type(manifest).__name__}, not an object"
        )
    sketch = manifest.get("sketch")
    if isinstance(sketch, Mapping):
        sketch = {**sketch, "rows": rows}
    return {**manifest, "occupancy": occupancy, "sketch": sketch}


def _read_npy(data: bytes, name: str, dtype: str) -> np.ndarray:
    """The array in a ``.npy`` member, which must hold *dtype* values."""
    stream = io.BytesIO(data)
    if np.lib.format.read_magic(stream) != (1, 0):
        raise PersistError(f"{name} is not a version 1.0 .npy array")
    shape, _, found = np.lib.format.read_array_header_1_0(stream)
    if found != np.dtype(dtype):
        raise PersistError(f"{name} holds {found} values, expected {dtype}")
    expected = stream.tell() + math.prod(shape) * found.itemsize
    if expected != len(data):
        raise PersistError(
            f"{name} header of shape {shape} needs {expected} bytes, the "
            f"member has {len(data)}"
        )
    stream.seek(0)
    return np.lib.format.read_array(stream, allow_pickle=False)


def _check_model_version(
    payload: Mapping, path: Path, accepted: tuple[int, ...], layout: str
) -> None:
    """Refuse a payload whose ``format_version`` its layout does not carry."""
    version = payload.get("format_version")
    readable = (
        f"this library reads versions 1..{MODEL_FORMAT_VERSION} (1 and "
        f"{_JSON_MODEL_FORMAT_VERSION} as JSON, {MODEL_FORMAT_VERSION} as "
        f"a container)"
    )
    if version is None:
        raise PersistError(
            f"malformed model payload in {path}: missing format_version "
            f"(found: none; {readable})"
        )
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or version not in accepted
    ):
        raise PersistError(
            f"model payload in {path} has unsupported format version "
            f"{version!r} for a {layout} snapshot; {readable} — upgrade repro"
        )


def _model_from_payload(
    payload: Mapping, event_sink: EventSink | None
) -> GridModel:
    """Restore a v1, v2 or v3 payload; every v2-only key has a v1 default."""
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
