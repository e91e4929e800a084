"""The engine layer: search protocol, run context, events, registry.

This package defines *how a search runs* independently of *what it
searches*:

* :mod:`repro.engine.protocol` — the ``prepare/step/finalize``
  :class:`SearchEngine` protocol and the :class:`GeneratorEngine` base
  every built-in searcher rides on;
* :mod:`repro.engine.context` — :class:`RunContext`, the one bundle of
  cancel token, checkpointer, budget, resume request and event sink
  that gets injected into a run;
* :mod:`repro.engine.events` — typed :class:`Event` records and the
  pluggable :class:`EventSink` family;
* :mod:`repro.engine.registry` — the name → factory registry the
  detector, multi-k sweep and CLI resolve engines through;
* :mod:`repro.engine.stats` — the sink that folds the event stream back
  into the backward-compatible ``result.stats`` dictionary.

See ``docs/architecture.md`` for the layering diagram and the
"add your own searcher" recipe.
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
    register_event_type,
)
from .protocol import GeneratorEngine, SearchEngine
from .registry import (
    EngineSpec,
    create_engine,
    engine_names,
    engine_spec,
    register_engine,
    unregister_engine,
)
from .stats import StatsAssemblySink, merge_backend_health

__all__ = [
    "RunContext",
    "EVENT_TYPES",
    "register_event_type",
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
    "GeneratorEngine",
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "engine_names",
    "engine_spec",
    "create_engine",
]
