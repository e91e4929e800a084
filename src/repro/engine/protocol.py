"""The SearchEngine protocol: ``prepare(ctx) / step(ctx) / finalize(ctx)``.

Every projection searcher — evolutionary, brute force, and the local /
random ablation searchers — implements this three-phase protocol:

``prepare(ctx)``
    Bind the :class:`~repro.engine.context.RunContext`, build (or
    restore from checkpoint) the internal search state, and emit
    ``run_started``.  No search work happens yet.
``step(ctx)``
    Advance the search by exactly one *safe boundary* (a GA generation,
    a brute-force level, a local-search move/chunk) and return True, or
    return False once the search has nothing left to do.  Cancellation,
    deadlines and checkpoints all happen at these boundaries, so an
    external driver stepping the engine gets the same interruption
    semantics as :meth:`SearchEngine.run`.
``finalize(ctx)``
    Assemble the :class:`~repro.search.outcome.SearchOutcome` from the
    current state and emit ``engine_finished``.  Calling it before the
    steps are exhausted is allowed — the run is wound down as if
    cancelled at the last completed boundary.

:class:`GeneratorEngine` is the shared implementation: engines write
their search loop once as a ``_iterate(ctx)`` generator that yields at
every safe boundary, and the base class maps the protocol onto it.
The generator form keeps each loop body identical to its pre-protocol
shape, which is what the differential golden tests lock down.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Any, ClassVar

from ..exceptions import CheckpointError, SearchError, ValidationError
from .context import RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..search.outcome import SearchOutcome

__all__ = ["SearchEngine", "GeneratorEngine"]


class SearchEngine(ABC):
    """Abstract three-phase search engine (see module docstring)."""

    @abstractmethod
    def prepare(self, context: RunContext) -> None:
        """Bind *context* and build/restore the search state."""

    @abstractmethod
    def step(self, context: RunContext) -> bool:
        """Advance one safe boundary; False once the search is done."""

    @abstractmethod
    def finalize(self, context: RunContext) -> "SearchOutcome":
        """Assemble the outcome from the current state."""

    # ------------------------------------------------------------------
    def run(
        self, *, resume_from: object = None, context: RunContext | None = None
    ) -> "SearchOutcome":
        """Drive the full protocol: prepare, step until done, finalize.

        ``resume_from`` is the legacy keyword the pre-protocol searchers
        took; it is folded into the context so both call styles work.
        """
        context = self._resolve_context(context, resume_from)
        self.prepare(context)
        while self.step(context):
            pass
        return self.finalize(context)

    def _resolve_context(
        self, context: RunContext | None, resume_from: object
    ) -> RunContext:
        """Default context from the engine's own constructor arguments."""
        if context is None:
            context = RunContext(
                cancel_token=getattr(self, "cancel_token", None),
                checkpointer=getattr(self, "checkpointer", None),
            )
        if resume_from is not None:
            context.resume_from = resume_from
        return context


class GeneratorEngine(SearchEngine):
    """Protocol base mapping prepare/step/finalize onto a generator.

    Subclasses implement:

    * ``_iterate(context)`` — a generator that runs the search, yielding
      once right after setup (the prepare boundary) and once per safe
      boundary thereafter;
    * ``_build_outcome(context)`` — assemble the
      :class:`~repro.search.outcome.SearchOutcome` from instance state;
    * optionally ``_mark_abandoned(context)`` — adjust state when
      :meth:`finalize` is called before the generator is exhausted.

    Checkpointing engines set ``algorithm``: the name their checkpoint
    states carry, which :meth:`_load_resume_state` checks on resume.
    """

    algorithm: ClassVar[str] = ""
    _iterator: Iterator[None] | None = None

    # ------------------------------------------------------------------
    def prepare(self, context: RunContext) -> None:
        self._iterator = self._iterate(context)
        # Prime the generator: setup runs now, stopping at the initial
        # yield, so finalize() always has state to assemble from.
        try:
            next(self._iterator)
        except StopIteration:  # pragma: no cover - defensive
            self._iterator = None

    def step(self, context: RunContext) -> bool:
        if self._iterator is None:
            return False
        try:
            next(self._iterator)
        except StopIteration:
            self._iterator = None
            return False
        return True

    def finalize(self, context: RunContext) -> "SearchOutcome":
        if self._iterator is not None:
            # Abandoned mid-run: close the generator so its try/finally
            # blocks (counter token/sink restoration) run immediately,
            # then report the run as cancelled at the last boundary.
            self._iterator.close()
            self._iterator = None
            self._mark_abandoned(context)
        outcome = self._build_outcome(context)
        context.emit(
            "engine_finished",
            algorithm=str(outcome.stats.get("algorithm", type(self).__name__)),
            stopped_reason=outcome.stopped_reason,
            completed=outcome.completed,
            n_projections=len(outcome.projections),
            best_coefficient=outcome.best_coefficient,
            evaluations=int(outcome.stats.get("evaluations", 0)),
            counter_stats=self._counter_stats_snapshot(context),
            backend_health=self._backend_health_snapshot(context),
        )
        return outcome

    # ------------------------------------------------------------------
    def _iterate(
        self, context: RunContext
    ) -> Iterator[None]:  # pragma: no cover - interface
        raise NotImplementedError

    def _build_outcome(
        self, context: RunContext
    ) -> "SearchOutcome":  # pragma: no cover
        raise NotImplementedError

    def _mark_abandoned(self, context: RunContext) -> None:
        """Hook for subclasses; default latches a cancelled stop reason."""
        run = getattr(self, "_run", None)
        if isinstance(run, dict):
            run["stopped_reason"] = "cancelled"

    def _require_run_state(self) -> dict:
        """The per-run state bundle built by ``_iterate``'s setup."""
        run = getattr(self, "_run", None)
        if not isinstance(run, dict):
            raise SearchError("finalize()/step() called before prepare()")
        return run

    def _load_resume_state(
        self, resume_from: object, checkpointer: Any = None
    ) -> dict[str, Any] | None:
        """Normalize ``resume_from`` into a state dict (or None)."""
        if checkpointer is None:
            checkpointer = getattr(self, "checkpointer", None)
        if resume_from is None or resume_from is False:
            return None
        if resume_from is True:
            if checkpointer is None:
                raise CheckpointError(
                    "resume_from=True needs a checkpointer; construct the "
                    "search with checkpointer=..."
                )
            state = checkpointer.load()
        elif isinstance(resume_from, Mapping):
            state = dict(resume_from)
        else:
            raise ValidationError(
                "resume_from must be None, True, or a checkpoint state "
                f"mapping, got {type(resume_from).__name__}"
            )
        if state.get("algorithm") != self.algorithm:
            raise CheckpointError(
                "checkpoint was written by a "
                f"{state.get('algorithm', 'unknown')!r} search, not a "
                f"{self.algorithm!r} one"
            )
        return state

    # ------------------------------------------------------------------
    def _resolve_counter(self, context: RunContext) -> Any:
        """The counter this run counts through (context wins)."""
        counter = context.counter if context.counter is not None else getattr(
            self, "counter", None
        )
        if counter is None:
            raise SearchError(
                f"{type(self).__name__} has no counter: pass one at "
                "construction or on the RunContext"
            )
        return counter

    def _counter_stats_snapshot(self, context: RunContext) -> dict:
        counter = context.counter or getattr(self, "counter", None)
        return counter.cache_stats() if counter is not None else {}

    def _backend_health_snapshot(self, context: RunContext) -> dict:
        counter = context.counter or getattr(self, "counter", None)
        return counter.backend_health() if counter is not None else {}
