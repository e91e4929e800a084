"""The engine layer: search protocol, run context, events, registry.

This package defines *how a search runs* independently of *what it
searches*:

* :mod:`repro.engine.protocol` — the ``prepare/step/finalize``
  :class:`SearchEngine` protocol every searcher rides on;
* :mod:`repro.engine.context` — :class:`RunContext`, the one bundle of
  cancel token, checkpointer, budget, resume request and event sink
  that gets injected into a run;
* :mod:`repro.engine.events` — typed :class:`Event` records, the
  fixed :data:`EVENT_TYPES` vocabulary and the :class:`EventSink`
  family;
* :mod:`repro.engine.registry` — :data:`ENGINES`, the table of the
  paper's five searches that the detector, multi-k sweep and CLI
  resolve engines through;
* :mod:`repro.engine.stats` — the sink that folds the event stream back
  into the backward-compatible ``result.stats`` dictionary.

See ``docs/architecture.md`` for the layering diagram and the recipe
for adding a searcher.
"""

from .context import RunContext
from .events import (
    EVENT_TYPES,
    CompositeSink,
    Event,
    EventSink,
    InMemoryEventSink,
    JsonlTraceSink,
    NullSink,
    emit_event,
)
from .protocol import SearchEngine
from .registry import ENGINES, create_engine
from .stats import StatsAssemblySink, merge_backend_health

__all__ = [
    "RunContext",
    "EVENT_TYPES",
    "Event",
    "emit_event",
    "EventSink",
    "NullSink",
    "InMemoryEventSink",
    "JsonlTraceSink",
    "CompositeSink",
    "StatsAssemblySink",
    "merge_backend_health",
    "SearchEngine",
    "ENGINES",
    "create_engine",
]
