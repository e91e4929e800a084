"""Serving a saved model file with hot reload: :class:`ModelHandle`.

The CLI's ``score`` endpoint (and any long-lived host process) holds a
handle on a model *file* rather than a loaded model: each request goes
through :meth:`ModelHandle.current`, which reloads the model when the
file changed underneath — a concurrent ``repro score --update`` run, a
retrain job, an rsync.  Change detection is two-level so the hot path
stays cheap:

1. a ``stat`` stamp (``st_mtime_ns``, ``st_size``) — one syscall per
   request; unchanged stamp means the cached model is served as-is;
2. on a stamp change, a SHA-256 of the file contents — a rewrite with
   identical bytes (same snapshot re-saved) refreshes the stamp without
   a reload, so model identity follows content, not timestamps.

Saves go through the handle too (:meth:`ModelHandle.save`): the write
is :func:`~repro.persist.save_model`'s atomic schema-v3 snapshot and
the stamp/digest are refreshed so the process never reloads its own
save.  Every genuine reload emits a ``model_updated`` event with
``action="hot_reload"``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..engine.events import EventSink, emit_event
from ..exceptions import PersistError
from .grid_model import GridModel

__all__ = ["ModelHandle"]


class ModelHandle:
    """A hot-reloadable handle on a model file written by ``save_model``."""

    def __init__(self, path: str | Path, *, event_sink: EventSink | None = None):
        self.path = Path(path)
        self.event_sink = event_sink
        self._model: GridModel | None = None
        self._stamp: tuple[int, int] | None = None
        self._digest: str | None = None
        self.reloads = 0

    # ------------------------------------------------------------------
    def current(self) -> GridModel:
        """The up-to-date model, reloading it if the file changed."""
        stamp = self._file_stamp()
        if self._model is not None and stamp == self._stamp:
            return self._model
        digest = self._file_digest()
        if self._model is not None and digest == self._digest:
            # Touched (new mtime) but byte-identical: adopt the stamp so
            # the next request is back on the one-syscall path.
            self._stamp = stamp
            return self._model
        from ..persist import load_model

        model = load_model(self.path, event_sink=self.event_sink)
        first = self._model is None
        self._model = model
        self._stamp = stamp
        self._digest = digest
        if not first:
            self.reloads += 1
            emit_event(
                self.event_sink,
                "model_updated",
                action="hot_reload",
                path=str(self.path),
                version=model.version,
            )
        return model

    def save(self, model: GridModel) -> Path:
        """Atomically write *model* back to the file and adopt it."""
        from ..persist import save_model

        save_model(model, self.path)
        self._model = model
        self._stamp = self._file_stamp()
        self._digest = self._file_digest()
        return self.path

    # ------------------------------------------------------------------
    def _file_stamp(self) -> tuple[int, int]:
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            raise PersistError(f"model file not found: {self.path}") from None
        return (stat.st_mtime_ns, stat.st_size)

    def _file_digest(self) -> str:
        return hashlib.sha256(self.path.read_bytes()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        loaded = "unloaded" if self._model is None else f"v{self._model.version}"
        return f"ModelHandle({self.path}, {loaded}, reloads={self.reloads})"
