"""Damaged and hostile schema-v3 snapshots: a typed error or the same model.

A byte flipped anywhere in a v3 container, or the file cut at any
length, must either raise :class:`~repro.exceptions.PersistError` or
load a model whose ``score`` is byte-identical to the original's (a
flip in a field the reader ignores, such as a member timestamp).  The
zip CRC covers every member, so a flip inside the manifest or the
arrays is caught rather than misread.  A container that holds a
pickled (object-dtype) array is refused without unpickling it.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.detector import SubspaceOutlierDetector
from repro.exceptions import PersistError
from repro.model import GridModel
from repro.persist import load_model, save_model


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A small mined, updated model, its v3 bytes and its reference scores."""
    rng = np.random.default_rng(3)
    data = rng.normal(size=(80, 3))
    model = GridModel.fit(data, n_ranges=3, sketch_size=16)
    SubspaceOutlierDetector(
        dimensionality=2, n_ranges=3, method="brute_force"
    ).detect_model(model)
    model.update(data[:5])
    path = save_model(model, tmp_path_factory.mktemp("v3") / "model.json")
    return path.read_bytes(), data, model.score(data).tobytes()


def _loads_same_or_refuses(blob: bytes, path, snapshot) -> bool:
    """True when *blob* loads to the original model, False on PersistError."""
    _, data, reference = snapshot
    path.write_bytes(blob)
    try:
        loaded = load_model(path)
    except PersistError as exc:
        assert str(path) in str(exc)
        return False
    assert loaded.score(data).tobytes() == reference
    return True


def _member_offset(blob: bytes, name: str) -> int:
    """Offset of member *name*'s data in the container."""
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        info = archive.getinfo(name)
    return info.header_offset + 30 + len(info.filename) + len(info.extra)


def _flip(blob: bytes, offset: int, mask: int = 0xFF) -> bytes:
    damaged = bytearray(blob)
    damaged[offset] ^= mask
    return bytes(damaged)


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_SETTINGS
@given(data=st.data())
def test_any_byte_flip_refuses_or_loads_the_same(snapshot, tmp_path, data):
    blob = snapshot[0]
    offset = data.draw(st.integers(0, len(blob) - 1))
    mask = data.draw(st.integers(1, 255))
    _loads_same_or_refuses(_flip(blob, offset, mask), tmp_path / "m.json", snapshot)


@_SETTINGS
@given(data=st.data())
def test_any_truncation_refuses(snapshot, tmp_path, data):
    blob = snapshot[0]
    length = data.draw(st.integers(0, len(blob) - 1))
    assert not _loads_same_or_refuses(blob[:length], tmp_path / "m.json", snapshot)


@pytest.mark.parametrize(
    "member", ["manifest.json", "sketch_rows.npy", "occupancy.npy"]
)
@pytest.mark.parametrize("at", [0, 20, -1])
def test_flip_inside_a_member_is_caught(snapshot, tmp_path, member, at):
    blob = snapshot[0]
    start = _member_offset(blob, member)
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        size = archive.getinfo(member).file_size
    offset = start + (at if at >= 0 else size + at)
    with pytest.raises(PersistError, match="CRC"):
        load_model(_write(tmp_path, _flip(blob, offset)))


@pytest.mark.parametrize(
    "field, refused",
    [
        (16, True),  # CRC-32 of the first member
        (10, True),  # compression method
        (46, True),  # first byte of the first file name
        (12, False),  # modification time: not read
    ],
)
def test_flip_in_the_central_directory(snapshot, tmp_path, field, refused):
    blob = snapshot[0]
    directory = blob.index(b"PK\x01\x02")
    loaded = _loads_same_or_refuses(
        _flip(blob, directory + field), tmp_path / "m.json", snapshot
    )
    assert loaded is not refused


def _forge(blob: bytes, replace: dict, compression=zipfile.ZIP_STORED) -> bytes:
    """*blob*'s members rewritten into a new container, some replaced."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(blob)) as source, zipfile.ZipFile(
        buffer, "w", compression
    ) as forged:
        for name in source.namelist():
            forged.writestr(name, replace.get(name, source.read(name)))
    return buffer.getvalue()


def _write(tmp_path, blob: bytes):
    path = tmp_path / "forged.json"
    path.write_bytes(blob)
    return path


def test_object_dtype_member_is_refused(snapshot, tmp_path):
    pickled = io.BytesIO()
    np.save(pickled, np.array([{"x": 1}], dtype=object))
    blob = _forge(snapshot[0], {"sketch_rows.npy": pickled.getvalue()})
    with pytest.raises(PersistError, match="object"):
        load_model(_write(tmp_path, blob))


def test_compressed_member_is_refused(snapshot, tmp_path):
    blob = _forge(snapshot[0], {}, zipfile.ZIP_DEFLATED)
    with pytest.raises(PersistError, match="compressed"):
        load_model(_write(tmp_path, blob))


def test_array_header_larger_than_its_member_is_refused(snapshot, tmp_path):
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<i8", "fortran_order": False, "shape": (1 << 40,)}
    )
    blob = _forge(snapshot[0], {"occupancy.npy": header.getvalue()})
    with pytest.raises(PersistError, match="needs"):
        load_model(_write(tmp_path, blob))


def test_manifest_with_unknown_version_is_refused(snapshot, tmp_path):
    with zipfile.ZipFile(io.BytesIO(snapshot[0])) as archive:
        manifest = json.loads(archive.read("manifest.json"))
    manifest["format_version"] = 2
    blob = _forge(snapshot[0], {"manifest.json": json.dumps(manifest).encode()})
    with pytest.raises(PersistError, match="unsupported format version 2"):
        load_model(_write(tmp_path, blob))
