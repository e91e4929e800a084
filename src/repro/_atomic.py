"""Crash-safe file writes: temp file in the target directory + ``os.replace``.

Long-running sweeps persist checkpoints, models and exported datasets
while they may be killed at any instant (SIGTERM, OOM, Ctrl-C).  A
naive ``open(path, "w")`` interrupted mid-write leaves a truncated file
that corrupts the next run; every on-disk writer in this library
therefore goes through these helpers:

1. write the full payload to a uniquely-named temp file *in the same
   directory* as the target (so the final rename never crosses a
   filesystem boundary),
2. flush and ``fsync`` the temp file,
3. ``os.replace`` it over the target — atomic on POSIX and Windows.

Readers consequently only ever observe the old file or the complete new
one, never a partial write.  On any error the temp file is removed and
the original target is left untouched.  A full disk (ENOSPC/EDQUOT)
surfaces as a typed :class:`~repro.exceptions.ResourceError` naming the
path and payload size instead of a raw ``OSError``; the
``atomic_write`` fault point lets chaos tests inject exactly that.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import tempfile
from pathlib import Path
from collections.abc import Iterator
from typing import IO

from .exceptions import ResourceError
from .resilience.faults import maybe_inject

__all__ = [
    "atomic_writer",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
]

_FULL_DISK_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT})


def _wrap_full_disk(exc: BaseException, path: Path, nbytes: int | None):
    """Re-raise ENOSPC/EDQUOT as a typed, actionable ResourceError."""
    if isinstance(exc, OSError) and exc.errno in _FULL_DISK_ERRNOS:
        size = f"~{nbytes} bytes needed" if nbytes is not None else \
            "size unknown"
        raise ResourceError(
            exc.errno,
            f"disk full writing {path} ({size}); free space on "
            f"{path.parent or '.'} or point the run at another volume",
        ) from exc


@contextlib.contextmanager
def atomic_writer(path, *, newline: str | None = None) -> Iterator[IO[str]]:
    """Context manager yielding a text handle that commits atomically.

    The handle writes to a temp file next to *path*; on clean exit the
    temp file is fsynced and renamed over *path*.  If the body raises,
    the temp file is deleted and *path* is untouched.
    """
    path = Path(path)
    try:
        maybe_inject("atomic_write", path=str(path))
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or "."
        )
    except OSError as exc:
        _wrap_full_disk(exc, path, None)
        raise
    try:
        with os.fdopen(fd, "w", newline=newline) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        _wrap_full_disk(exc, path, None)
        raise


def atomic_write_bytes(path, data: bytes) -> Path:
    """Atomically replace *path* with binary *data*; returns the path.

    Same temp-file + fsync + ``os.replace`` protocol as the text
    helpers, so a kill mid-write never leaves a truncated binary
    artifact (mask shards, packed arrays) behind.
    """
    path = Path(path)
    try:
        maybe_inject("atomic_write", path=str(path), nbytes=len(data))
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or "."
        )
    except OSError as exc:
        _wrap_full_disk(exc, path, len(data))
        raise
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        _wrap_full_disk(exc, path, len(data))
        raise
    return path


def atomic_write_text(path, text: str) -> Path:
    """Atomically replace *path* with *text*; returns the written path."""
    path = Path(path)
    with atomic_writer(path) as handle:
        handle.write(text)
    return path


def atomic_write_json(path, payload, *, indent: int | None = 2) -> Path:
    """Atomically replace *path* with *payload* serialized as JSON.

    Serialization happens *before* the target is touched, so a payload
    that fails to encode never clobbers an existing file.
    """
    text = json.dumps(payload, indent=indent)
    return atomic_write_text(path, text)
