"""RunContext: the cross-cutting run state injected into every engine.

A :class:`RunContext` is the only way to hand an engine its run state:
cancel token, checkpointer, wall-clock budget, resume request and event
sink.  :class:`~repro.run.controller.RunController` builds it, the
detector passes it to whichever engine of
:data:`~repro.engine.registry.ENGINES` it built, and the engine reads
what it needs.  Engine constructors take only what the
search *is* (counter, k, m, hyper-parameters); everything about how
one run of it stops, saves and reports lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .events import EventSink, NullSink, emit_event

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """Everything an engine run shares with its surroundings.

    Attributes
    ----------
    cancel_token:
        Cooperative :class:`~repro.run.cancel.CancelToken`; polled at
        safe boundaries (None: the run cannot be cancelled).
    checkpointer:
        :class:`~repro.run.checkpoint.SearchCheckpointer` for crash-safe
        boundary snapshots (None disables checkpointing).
    max_seconds:
        Remaining wall-clock budget for this run.  Engines take the
        minimum of this and their own configured budget.
    sink:
        The :class:`~repro.engine.events.EventSink` boundary events are
        emitted to.
    resume_from:
        ``None`` (fresh run), ``True`` (load the checkpointer's latest
        snapshot), or an explicit state mapping.
    """

    cancel_token: Any = None
    checkpointer: Any = None
    max_seconds: float | None = None
    sink: EventSink = field(default_factory=NullSink)
    resume_from: Any = None

    def emit(self, type: str, **payload: Any) -> None:
        """Emit one typed event to the context's sink."""
        emit_event(self.sink, type, **payload)

    def merged_budget(self, engine_max_seconds: float | None) -> float | None:
        """The effective wall-clock budget: min of context and engine."""
        if self.max_seconds is None:
            return engine_max_seconds
        if engine_max_seconds is None:
            return self.max_seconds
        return min(self.max_seconds, engine_max_seconds)
